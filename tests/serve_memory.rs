//! Live heap a long-lived `Service` keeps for each fresh `/v1/check`
//! request.
//!
//! A daemon that frees nothing per novel manifest grows with the number of
//! manifests it has seen, so its resident size rises with throughput. This
//! binary counts live heap bytes with its own global allocator: it primes
//! one service with the 25 pinned manifests, then posts fresh requests
//! (every pinned manifest with each content literal given a unique
//! suffix, under a new name) and divides the growth by their number.
//!
//! It is a binary of its own because the allocator is process-wide: no
//! other test may allocate while it measures.

mod support;

use rehearsal::fleet::Json;
use rehearsal::serve::http::Request;
use rehearsal::serve::{ServeOptions, Service};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, counting the bytes currently allocated.
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE_BYTES.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live_bytes() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// One `/v1/check` through [`Service::handle`], with no transport.
fn post_check(service: &Service, manifest: &str, source: &str, metadata: bool) {
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
}

/// Fresh requests measured after priming (a multiple of the 25 pinned
/// manifests, so every manifest weighs the same).
const FRESH: usize = 3000;

/// Live bytes a fresh request may leave behind: its verdict-cache entry
/// and baseline pin (which share one detail and one diagnostics list),
/// its name's serve row and memo keys, its new arena nodes and their
/// digests, and the tables' share of growth. Without that sharing, and
/// with per-node digest allocations and per-node set slots in the arena,
/// a request kept about 3.0 KiB here.
const BOUND_BYTES_PER_REQUEST: f64 = 2500.0;

#[test]
fn a_fresh_serve_request_leaves_little_live_heap_behind() {
    let service = Service::new(ServeOptions::default()).unwrap();
    let manifests = support::pinned();
    for m in &manifests {
        post_check(&service, m.name, m.source, m.metadata);
    }
    // One more pass of fresh requests before measuring, so the lazily
    // sized tables are past their first growth steps.
    let fresh = |round: usize| {
        for (i, m) in manifests.iter().enumerate() {
            let suffix = format!("-fresh-{round}-{i}");
            let source = support::rename_literals(m.source, &suffix);
            let name = format!("fresh/{round}/{}", m.name);
            post_check(&service, &name, &source, m.metadata);
        }
    };
    fresh(0);
    // Live bytes after every round: the least-squares slope over all of
    // them, rather than the difference of the two ends, so a table that
    // happens to double near one end does not decide the figure.
    let rounds = FRESH / manifests.len();
    let mut points: Vec<(f64, f64)> = Vec::with_capacity(rounds);
    for round in 1..=rounds {
        fresh(round);
        points.push(((round * manifests.len()) as f64, live_bytes() as f64));
    }
    let n = points.len() as f64;
    let (mx, my) = points
        .iter()
        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x / n, b + y / n));
    let sxy: f64 = points.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = points.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum();
    let per_request = sxy / sxx;
    println!(
        "live heap per fresh request: {per_request:.0} B ({:.2} KiB; bound {BOUND_BYTES_PER_REQUEST:.0} B)",
        per_request / 1024.0
    );
    assert!(
        per_request < BOUND_BYTES_PER_REQUEST,
        "each fresh request keeps {per_request:.0} B live (bound {BOUND_BYTES_PER_REQUEST:.0} B)"
    );
}
