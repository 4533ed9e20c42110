//! **rehearsal-serve** — the warm-core verification daemon.
//!
//! Every CLI invocation pays the process tax: allocate arenas, reload
//! the verdict cache, re-open the baseline, warm the solver. A fleet of
//! editors, CI bots, and watch loops asking "is this manifest still
//! deterministic?" should instead hit a process that is *already warm*.
//! This crate is that process:
//!
//! * [`Server`] — a dependency-free threaded HTTP/1.1 JSON daemon on
//!   [`std::net::TcpListener`]: a blocking accept loop (woken for
//!   shutdown by a connection to its own port), a bounded connection
//!   queue, and a fixed request-worker pool;
//! * [`Service`] — the warm core the workers share: one resident
//!   [`rehearsal_fleet::StateDir`] (schema-5 verdict cache + baseline
//!   store), a request memo mapping byte-identical repeats to their
//!   verdict-cache key so they skip re-lowering, baseline pins for drift
//!   detection, the coverage rollup, and the live metrics registry;
//! * [`history`] — the hash-chained `rehearsal-history/1` run log
//!   (tamper-evident; torn tails truncate and degrade, never wedge);
//! * [`watch`] — poll-based re-verification of a manifest directory
//!   through the normal check path (verdict cache, then baseline pins,
//!   then cold analysis);
//! * [`coverage`] — the `rehearsal coverage` CI gate: exit non-zero on
//!   verdict drift against the pinned baseline or below-threshold
//!   coverage.
//!
//! Endpoints: `POST /v1/check`, `POST /v1/lint`, `GET /v1/fleet`,
//! `GET /v1/coverage`, `GET /v1/metrics` (Prometheus),
//! `GET /v1/healthz`, `POST /v1/shutdown`. Check responses are the same
//! `rehearsal-check/5` documents the batch CLI prints, built by the
//! same serializer — verdicts are bit-identical by construction.
//!
//! # Examples
//!
//! ```
//! use rehearsal_serve::{http, Server, ServeOptions};
//!
//! let server = Server::bind(ServeOptions {
//!     addr: "127.0.0.1:0".to_string(), // ephemeral port
//!     ..ServeOptions::default()
//! })
//! .unwrap();
//! let addr = server.local_addr().unwrap().to_string();
//! let handle = std::thread::spawn(move || server.run());
//! let (status, body) = http::http_request(
//!     &addr,
//!     "POST",
//!     "/v1/check",
//!     r#"{"manifest":"motd.pp","source":"file { '/etc/motd': content => 'hi' }"}"#,
//! )
//! .unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains("\"verdict\": \"deterministic\""));
//! let _ = http::http_request(&addr, "POST", "/v1/shutdown", "").unwrap();
//! handle.join().unwrap().unwrap();
//! ```

#![warn(missing_docs)]

pub mod coverage;
pub mod history;
pub mod http;
pub mod server;
pub mod service;
pub mod watch;

pub use coverage::{run_coverage, CoverageOptions, CoverageOutcome};
pub use history::{verify_chain, ChainReport, HistoryLog, HISTORY_FILE, HISTORY_SCHEMA};
pub use server::Server;
pub use service::{ServeOptions, Service, SERVE_SCHEMA};
