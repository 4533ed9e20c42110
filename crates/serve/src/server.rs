//! The threaded HTTP server around a [`Service`]: a blocking accept loop
//! feeding a bounded connection queue, a fixed pool of request workers,
//! the optional watch thread, and the graceful-shutdown drain (stop
//! accepting → drain queued and in-flight requests → cancel stragglers
//! via the drain [`rehearsal_core::CancelToken`] → flush state → final
//! history record).
//!
//! The accept loop never polls. A blocked `accept` returns only when a
//! connection arrives, so stopping is a connection too: requesting a
//! stop (`POST /v1/shutdown`, or a signal) connects once to the
//! server's own port, and the loop, which checks
//! [`Service::stopping`] after every accept, drops that connection
//! unanswered and starts the drain. Signals need a thread of their own
//! for this: libc's `signal()` installs handlers with `SA_RESTART`, so
//! a blocked `accept` is restarted rather than interrupted. The signal
//! watcher polls the handler's flag off the request path and makes the
//! wake connection on its behalf.

use crate::http::{read_request, write_response, Response};
use crate::service::{ServeOptions, Service};
use crate::watch::spawn_watcher;
use std::collections::VecDeque;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Queued connections beyond which new ones are answered `503`.
const QUEUE_CAP: usize = 128;
/// How long the drain waits for in-flight requests before cancelling
/// them through the drain token.
pub const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// How often the signal watcher looks at [`SIGNALLED`]. It sits off the
/// request path, so this bounds only how soon a signal starts the drain.
const SIGNAL_POLL: Duration = Duration::from_millis(20);
/// Back-off after an `accept` error (e.g. out of file descriptors), so a
/// persistent error cannot spin the loop.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Set by the SIGINT/SIGTERM handler; watched by the signal thread.
/// Signal handlers may only touch async-signal-safe state, hence a bare
/// flag.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::SIGNALLED;
    use std::sync::atomic::Ordering;

    type SigHandler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: SigHandler) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::Relaxed);
    }

    /// Routes SIGINT (2) and SIGTERM (15) into [`SIGNALLED`]. Declared
    /// against libc's `signal` directly — the daemon stays free of
    /// external crates, and `std` already links libc on unix.
    pub(super) fn install() {
        unsafe {
            signal(2, on_signal);
            signal(15, on_signal);
        }
    }
}

/// A bound server, not yet running. Binding is separate from serving so
/// callers (tests, the CLI) can read the resolved address — including
/// an ephemeral port — before the accept loop starts.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
}

/// The shared connection queue: closed flag + FIFO behind one lock,
/// with a condvar for worker wakeup.
struct Queue {
    state: Mutex<(bool, VecDeque<TcpStream>)>,
    ready: Condvar,
}

impl Server {
    /// Opens the service state and binds the listen socket.
    ///
    /// # Errors
    ///
    /// I/O errors from state opening or the bind.
    pub fn bind(options: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        let service = Arc::new(Service::new(options)?);
        service.set_wake_addr(wake_addr(listener.local_addr()?));
        Ok(Server { listener, service })
    }

    /// The bound address (resolves port `0` to the actual port).
    ///
    /// # Errors
    ///
    /// I/O errors from the socket query.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared service (tests reach the warm core through this).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Installs SIGINT/SIGTERM handlers that trigger the same graceful
    /// drain as `POST /v1/shutdown`. The CLI calls this; tests drive
    /// shutdown over HTTP instead.
    pub fn install_signal_handlers(&self) {
        #[cfg(unix)]
        sig::install();
    }

    /// Runs the accept loop until shutdown is requested (signal or
    /// `POST /v1/shutdown`), then drains: workers finish queued and
    /// in-flight requests, stragglers past the grace period are
    /// cancelled through the drain token, the watcher joins, and the
    /// state flushes with a final history record. No torn JSONL lines:
    /// every store rewrites through the single [`Service::flush`].
    ///
    /// # Errors
    ///
    /// I/O errors from the final state flush.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, service } = self;
        let queue = Arc::new(Queue {
            state: Mutex::new((false, VecDeque::new())),
            ready: Condvar::new(),
        });
        let active = Arc::new(AtomicUsize::new(0));

        let workers: Vec<_> = (0..service.options().effective_workers())
            .map(|_| {
                let queue = Arc::clone(&queue);
                let service = Arc::clone(&service);
                let active = Arc::clone(&active);
                std::thread::spawn(move || worker_loop(&queue, &service, &active))
            })
            .collect();
        let watcher = service.options().watch.clone().map(|dir| {
            let service = Arc::clone(&service);
            let poll_ms = service.options().poll_ms;
            spawn_watcher(service, dir, poll_ms)
        });
        let signal_watcher = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                while !service.stopping() {
                    if SIGNALLED.load(Ordering::Relaxed) {
                        service.request_stop();
                        break;
                    }
                    std::thread::sleep(SIGNAL_POLL);
                }
            })
        };

        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                    continue;
                }
            };
            if service.stopping() {
                // The wake connection (or a client that raced it):
                // dropped unanswered, the listener closes with the loop.
                break;
            }
            let mut state = queue.state.lock().unwrap();
            if state.1.len() >= QUEUE_CAP {
                drop(state);
                let mut stream = stream;
                let _ = write_response(
                    &mut stream,
                    &Response::json(503, "{\"error\":\"overloaded\"}".to_string()),
                );
            } else {
                state.1.push_back(stream);
                drop(state);
                queue.ready.notify_one();
            }
        }
        drop(listener);

        // Drain: close the queue so idle workers exit once it empties,
        // give in-flight requests a grace period, then cancel them.
        queue.state.lock().unwrap().0 = true;
        queue.ready.notify_all();
        let deadline = Instant::now() + DRAIN_GRACE;
        while Instant::now() < deadline {
            let state = queue.state.lock().unwrap();
            if state.1.is_empty() && active.load(Ordering::Relaxed) == 0 {
                break;
            }
            drop(state);
            std::thread::sleep(Duration::from_millis(10));
        }
        service.cancel_inflight();
        for worker in workers {
            let _ = worker.join();
        }
        if let Some(watcher) = watcher {
            let _ = watcher.join();
        }
        let _ = signal_watcher.join();
        service.flush()
    }
}

/// The address a stop request connects to: the bound address, with an
/// unspecified host (`0.0.0.0` / `[::]`) replaced by loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// One request worker: pop a connection, parse, dispatch, respond,
/// close. Exits when the queue is closed and empty.
fn worker_loop(queue: &Queue, service: &Service, active: &AtomicUsize) {
    loop {
        let stream = {
            let mut state = queue.state.lock().unwrap();
            loop {
                if let Some(stream) = state.1.pop_front() {
                    break stream;
                }
                if state.0 {
                    return;
                }
                state = queue
                    .ready
                    .wait_timeout(state, Duration::from_millis(100))
                    .unwrap()
                    .0;
            }
        };
        active.fetch_add(1, Ordering::Relaxed);
        handle_connection(stream, service);
        active.fetch_sub(1, Ordering::Relaxed);
    }
}

fn handle_connection(mut stream: TcpStream, service: &Service) {
    // A stalled or byte-dribbling client must not wedge a worker.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let response = match read_request(&mut stream) {
        Ok(request) => service.handle(&request),
        Err(_) => Response::json(400, "{\"error\":\"malformed request\"}".to_string()),
    };
    let _ = write_response(&mut stream, &response);
}
