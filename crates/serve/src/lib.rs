//! # pmlp-serve — the networked evaluation-cache tier
//!
//! A dependency-free HTTP/1.1 key-value server over
//! `std::net::TcpListener` that exposes a [`StoreBackend`] to a fleet of
//! workers: candidate evaluations (and cached baselines / campaign
//! completion markers) computed by one machine become cache hits on every
//! other machine pointed at the same server via `--remote-store URL`. A
//! second machine re-running a GA search replays it from those records.
//!
//! The wire format **is** the store's sealed-envelope JSONL (versioned by
//! [`pmlp_core::store::STORE_VERSION`]): a record scan response is
//! byte-compatible with a local record log, so the `pmlp-core`
//! [`RemoteBackend`](pmlp_core::store::RemoteBackend) client parses it with
//! the same corruption-tolerant code path as a file. Endpoints:
//!
//! | Method + path | Meaning |
//! |---------------|---------|
//! | `GET /v1/healthz` | liveness probe (always unauthenticated) |
//! | `GET /v1/stats` | request/record/connection counters (JSON) |
//! | `GET /v1/records/{name}/{fp}` | scan: header line + one record per line |
//! | `POST /v1/records/{name}/{fp}` | append the record line(s) in the body |
//! | `GET /v1/docs/{name}` | read a document (404 when absent) |
//! | `PUT /v1/docs/{name}` | write a document |
//! | `DELETE /v1/docs/{name}` | delete a document |
//! | `POST /v1/gc` | run a garbage-collection / compaction pass online |
//!
//! ## Architecture
//!
//! A **bounded worker pool** (default: one worker per core, clamped to
//! 4..=32) serves **persistent HTTP/1.1 keep-alive connections**: the accept
//! loop only hands sockets to a channel, and each worker runs a
//! per-connection request loop until the peer closes, asks for
//! `Connection: close`, goes idle for 60 s, or stalls a single request past
//! [`ServeConfig::request_timeout`] (the slowloris guard — a half-written
//! request costs a worker at most that long, then it answers `408` and moves
//! on).
//!
//! State lives in an in-memory backend by default, or durably in a local
//! JSONL store directory (`ServeConfig::store_dir`) — the same on-disk
//! format a single-machine run writes, so an existing `--store` directory
//! can be promoted to a shared server without conversion. A disk-backed
//! server reads and writes its directory through one [`LocalJsonlBackend`],
//! the only owner of those files: scans replay the log, and `POST /v1/gc`
//! runs [`LocalJsonlBackend::gc`] under the same lock as every append.
//!
//! Optional bearer-token auth (`ServeConfig::token` / `--token`): every
//! endpoint except `/v1/healthz` then requires
//! `Authorization: Bearer <token>` and answers `401` otherwise. Clients pass
//! the token inline in the store URL: `--remote-store http://TOKEN@host:port`.
//!
//! # Example
//!
//! ```no_run
//! use pmlp_serve::{ServeConfig, spawn};
//!
//! # fn main() -> std::io::Result<()> {
//! let handle = spawn(&ServeConfig::default())?; // 127.0.0.1, ephemeral port
//! println!("serving on {}", handle.url());
//! // ... point workers at handle.url() via --remote-store ...
//! handle.stop();
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod http;

use http::{read_request, respond, ReadError, Request};
use pmlp_core::store::{
    header_line, parse_record_line, record_line, safe_component, DurabilityPolicy, GcPolicy,
    GcReport, LocalJsonlBackend, MemoryBackend, StoreBackend,
};
use serde::json::Value;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How a server is stood up.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// Local JSONL directory to persist records and documents into; `None`
    /// keeps everything in memory for the server's lifetime.
    pub store_dir: Option<PathBuf>,
    /// Bearer token every endpoint except `/v1/healthz` requires; `None`
    /// serves unauthenticated (loopback / trusted-network deployments).
    pub token: Option<String>,
    /// Worker threads serving connections; `0` picks a per-core default
    /// (clamped to 4..=32).
    pub workers: usize,
    /// How long a single request may take to arrive once its first byte has
    /// been read — the slowloris guard.
    pub request_timeout: Duration,
    /// Durability policy of a disk-backed store (`--durability`); ignored by
    /// the in-memory default. Regardless of policy, a graceful shutdown
    /// fsyncs the record logs before returning.
    pub durability: DurabilityPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            store_dir: None,
            token: None,
            workers: 0,
            request_timeout: Duration::from_secs(20),
            durability: DurabilityPolicy::default(),
        }
    }
}

/// How long a keep-alive connection may sit idle between requests before
/// the server closes it.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a graceful shutdown waits for in-flight requests to finish
/// answering before giving up on them.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

fn default_workers() -> usize {
    thread::available_parallelism().map_or(8, |n| n.get().clamp(4, 32))
}

/// Monotonic request/record/connection counters, rendered by `GET /v1/stats`.
#[derive(Debug, Default)]
struct ServeStats {
    requests: AtomicU64,
    scans: AtomicU64,
    records_served: AtomicU64,
    records_appended: AtomicU64,
    doc_gets: AtomicU64,
    doc_puts: AtomicU64,
    doc_deletes: AtomicU64,
    bad_requests: AtomicU64,
    connections_accepted: AtomicU64,
    connections_active: AtomicU64,
    requests_reused: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    auth_failures: AtomicU64,
    gc_runs: AtomicU64,
    requests_in_flight: AtomicU64,
    panics_recovered: AtomicU64,
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Requests handled (any route, any outcome).
    pub requests: u64,
    /// Record-log scans served.
    pub scans: u64,
    /// Records streamed out across all scans.
    pub records_served: u64,
    /// Records appended across all `POST`s.
    pub records_appended: u64,
    /// Document reads (including 404s).
    pub doc_gets: u64,
    /// Document writes.
    pub doc_puts: u64,
    /// Document deletions.
    pub doc_deletes: u64,
    /// Requests rejected with a 4xx status.
    pub bad_requests: u64,
    /// Connections the accept loop handed to the worker pool.
    pub connections_accepted: u64,
    /// Connections currently inside a worker's request loop.
    pub connections_active: u64,
    /// Requests served on an already-used connection — the keep-alive reuse
    /// count (`requests - requests_reused` ≈ connections that carried
    /// traffic).
    pub requests_reused: u64,
    /// Request bytes read off the wire.
    pub bytes_in: u64,
    /// Response bytes written to the wire.
    pub bytes_out: u64,
    /// Requests rejected with `401` for a missing or wrong bearer token.
    pub auth_failures: u64,
    /// Online garbage-collection passes run via `POST /v1/gc`.
    pub gc_runs: u64,
    /// Requests read off the wire and not yet fully answered — what a
    /// graceful shutdown drains to zero.
    pub requests_in_flight: u64,
    /// Worker panics caught and converted into `500` responses; the pool
    /// self-heals instead of shrinking.
    pub panics_recovered: u64,
}

impl ServeStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            records_served: self.records_served.load(Ordering::Relaxed),
            records_appended: self.records_appended.load(Ordering::Relaxed),
            doc_gets: self.doc_gets.load(Ordering::Relaxed),
            doc_puts: self.doc_puts.load(Ordering::Relaxed),
            doc_deletes: self.doc_deletes.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            requests_reused: self.requests_reused.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            auth_failures: self.auth_failures.load(Ordering::Relaxed),
            gc_runs: self.gc_runs.load(Ordering::Relaxed),
            requests_in_flight: self.requests_in_flight.load(Ordering::Relaxed),
            panics_recovered: self.panics_recovered.load(Ordering::Relaxed),
        }
    }
}

/// The server's storage: plain memory, or a JSONL directory.
enum ServerStore {
    /// Non-persistent default state.
    Memory(MemoryBackend),
    /// Durable directory, owned by this one backend.
    Disk(LocalJsonlBackend),
}

impl ServerStore {
    fn backend(&self) -> &dyn StoreBackend {
        match self {
            ServerStore::Memory(memory) => memory,
            ServerStore::Disk(local) => local,
        }
    }
}

/// Shared server state: the backing store plus counters and limits.
struct ServerState {
    store: ServerStore,
    token: Option<String>,
    request_timeout: Duration,
    workers: usize,
    stats: ServeStats,
    started: Instant,
    /// Readiness toggle: while draining, `/v1/healthz` answers `503`
    /// (still **live**, no longer **ready**) and every response carries
    /// `Connection: close` — in-flight requests are answered, new work is
    /// shed.
    draining: AtomicBool,
    /// Terminal toggle, set once the drain window has closed: idle
    /// keep-alive connections stop being answered — a request arriving after
    /// this point sees the connection close, exactly like a dead server.
    halted: AtomicBool,
}

/// A server bound to its listener but not yet serving; lets callers learn
/// the (possibly ephemeral) address before the accept loop starts.
pub struct BoundServer {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// A handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    state: Arc<ServerState>,
    thread: Option<thread::JoinHandle<()>>,
}

/// Binds a server to `config.addr` without serving yet.
///
/// # Errors
///
/// Propagates bind failures and store-directory errors.
pub fn bind(config: &ServeConfig) -> std::io::Result<BoundServer> {
    let store = match &config.store_dir {
        Some(dir) => ServerStore::Disk(
            LocalJsonlBackend::open_with(dir, config.durability).map_err(std::io::Error::other)?,
        ),
        None => ServerStore::Memory(MemoryBackend::new()),
    };
    let listener = TcpListener::bind(&config.addr)?;
    let workers = if config.workers == 0 {
        default_workers()
    } else {
        config.workers
    };
    Ok(BoundServer {
        listener,
        state: Arc::new(ServerState {
            store,
            token: config.token.clone(),
            request_timeout: config.request_timeout,
            workers,
            stats: ServeStats::default(),
            started: Instant::now(),
            draining: AtomicBool::new(false),
            halted: AtomicBool::new(false),
        }),
    })
}

/// Binds and serves on a background thread, returning a [`ServerHandle`].
///
/// # Errors
///
/// Propagates bind failures and store-directory errors.
pub fn spawn(config: &ServeConfig) -> std::io::Result<ServerHandle> {
    bind(config)?.spawn()
}

/// Binds and serves on the calling thread until a shutdown signal arrives.
/// This is the `serve` binary's entry point.
///
/// On Unix, `SIGTERM` and `SIGINT` trigger a **graceful** shutdown: the
/// server stops accepting, answers what is already in flight (for up to
/// 5 s), fsyncs a disk-backed store, and returns.
/// On other platforms it serves forever.
///
/// # Errors
///
/// Propagates bind failures and store-directory errors.
pub fn run(config: &ServeConfig) -> std::io::Result<()> {
    let bound = bind(config)?;
    eprintln!(
        "pmlp-serve listening on http://{} ({}, {} workers{})",
        bound.local_addr()?,
        bound.state.store.backend().describe(),
        bound.state.workers,
        if bound.state.token.is_some() {
            ", bearer auth"
        } else {
            ""
        }
    );
    #[cfg(unix)]
    {
        install_shutdown_signal_handlers();
        let handle = bound.spawn()?;
        while !SHUTDOWN_REQUESTED.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(100));
        }
        eprintln!("pmlp-serve: shutdown signal received; draining in-flight requests");
        handle.stop();
        eprintln!("pmlp-serve: drained and flushed; bye");
        Ok(())
    }
    #[cfg(not(unix))]
    {
        bound.serve(&Arc::new(AtomicBool::new(false)));
        Ok(())
    }
}

/// Set by the `SIGTERM`/`SIGINT` handler; polled by [`run`]'s main thread.
#[cfg(unix)]
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Installs async-signal-safe handlers for `SIGTERM` (15) and `SIGINT` (2)
/// that only flip [`SHUTDOWN_REQUESTED`] — all real shutdown work happens on
/// the main thread. Uses the raw libc `signal` symbol (already linked by
/// `std`) to stay dependency-free.
#[cfg(unix)]
fn install_shutdown_signal_handlers() {
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_shutdown_signal(_signum: i32) {
        SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_shutdown_signal as *const () as usize);
        signal(SIGINT, on_shutdown_signal as *const () as usize);
    }
}

impl BoundServer {
    /// The address the listener is bound to.
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Moves the accept loop onto a background thread.
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket error.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::clone(&self.state);
        let stop_flag = Arc::clone(&stop);
        let thread = thread::spawn(move || self.serve(&stop_flag));
        Ok(ServerHandle {
            addr,
            stop,
            state,
            thread: Some(thread),
        })
    }

    /// The accept loop: sockets go onto a channel drained by the bounded
    /// worker pool, until `stop` flips. Dropping the sender (on exit) is what
    /// winds the idle workers down.
    fn serve(&self, stop: &Arc<AtomicBool>) {
        let (sender, receiver) = mpsc::channel::<TcpStream>();
        let receiver = Arc::new(Mutex::new(receiver));
        for _ in 0..self.state.workers {
            let state = Arc::clone(&self.state);
            let receiver = Arc::clone(&receiver);
            let stop = Arc::clone(stop);
            thread::spawn(move || worker_loop(&state, &receiver, &stop));
        }
        for stream in self.listener.incoming() {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            match stream {
                Ok(stream) => {
                    self.state
                        .stats
                        .connections_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    if sender.send(stream).is_err() {
                        break;
                    }
                }
                Err(err) => {
                    eprintln!("pmlp-serve: accept failed: {err}");
                }
            }
        }
        // The sender drops here: idle workers see a disconnected channel and
        // exit; busy ones finish their current connection first.
    }
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The base URL workers pass as `--remote-store`.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.state.stats.snapshot()
    }

    /// Flips the server to **draining**: `/v1/healthz` starts answering
    /// `503` (live but not ready — a load balancer's cue to shift traffic),
    /// every response carries `Connection: close`, and each connection is
    /// shed after its next answer. The server keeps accepting and answering
    /// until [`stop`](Self::stop) — this is the first half of a graceful
    /// shutdown, exposed for rolling restarts.
    pub fn drain(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
    }

    /// Gracefully stops the server: stops accepting, answers every request
    /// already read off the wire (for up to 5 s),
    /// then fsyncs a disk-backed store before returning. Idle keep-alive
    /// peers do not block shutdown — their workers are detached and their
    /// sockets die with the process.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        // Drain first, then stop: workers that already read a request see
        // `draining` and answer it (with `Connection: close`) instead of
        // slamming the door mid-request.
        self.state.draining.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
        // Wait (bounded) for in-flight requests to finish answering.
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.state.stats.requests_in_flight.load(Ordering::SeqCst) > 0
            && Instant::now() < deadline
        {
            thread::sleep(Duration::from_millis(2));
        }
        let abandoned = self.state.stats.requests_in_flight.load(Ordering::SeqCst);
        if abandoned > 0 {
            eprintln!("pmlp-serve: drain deadline passed with {abandoned} request(s) in flight");
        }
        // The drain window is over: idle keep-alive peers now see their next
        // request go unanswered (connection closed), the same as a dead
        // server — a stopped server must not keep quietly serving traffic.
        self.state.halted.store(true, Ordering::SeqCst);
        // Push everything the page cache still holds onto the platters; a
        // graceful exit must never cost records, whatever the durability
        // policy.
        if let Err(err) = self.state.store.backend().flush() {
            eprintln!("pmlp-serve: flush on shutdown failed: {err}");
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// One pool worker: drain connections off the shared channel until it
/// disconnects (server shutdown).
///
/// Each connection is handled under `catch_unwind`, so a panic anywhere in
/// the request path costs that one connection, not the worker — the pool
/// never shrinks. (The route dispatcher additionally catches panics
/// per-request so the peer gets a `500` instead of a reset; this outer net
/// covers the I/O layers around it.)
fn worker_loop(
    state: &Arc<ServerState>,
    receiver: &Arc<Mutex<mpsc::Receiver<TcpStream>>>,
    stop: &Arc<AtomicBool>,
) {
    loop {
        let next = receiver.lock().expect("worker queue lock").recv();
        match next {
            Ok(stream) => {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_connection(stream, state, stop);
                }));
                if caught.is_err() {
                    state.stats.panics_recovered.fetch_add(1, Ordering::Relaxed);
                    eprintln!("pmlp-serve: worker recovered from a connection-handler panic");
                }
            }
            Err(_) => break,
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
    }
}

/// The per-connection request loop: serve keep-alive requests until the peer
/// closes, asks to close, goes idle, stalls past the request deadline, or the
/// server shuts down.
fn handle_connection(mut stream: TcpStream, state: &ServerState, stop: &AtomicBool) {
    struct ActiveGuard<'a>(&'a AtomicU64);
    impl Drop for ActiveGuard<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }
    state
        .stats
        .connections_active
        .fetch_add(1, Ordering::Relaxed);
    let _active = ActiveGuard(&state.stats.connections_active);
    stream.set_nodelay(true).ok();

    let mut served_on_connection = 0u64;
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let mut bytes_in = 0u64;
        let outcome = read_request(&mut stream, state.request_timeout, &mut bytes_in);
        state.stats.bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
        let request = match outcome {
            Ok(Some(request)) => request,
            Ok(None) => break, // clean close or idle timeout between requests
            Err(ReadError::TimedOut) => {
                state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                if let Ok(n) = respond(
                    &mut stream,
                    408,
                    "Request Timeout",
                    "text/plain",
                    "request timed out\n",
                    false,
                ) {
                    state.stats.bytes_out.fetch_add(n, Ordering::Relaxed);
                }
                break;
            }
            Err(ReadError::Malformed(why)) => {
                state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                if let Ok(n) = respond(
                    &mut stream,
                    400,
                    "Bad Request",
                    "text/plain",
                    &format!("bad request: {why}\n"),
                    false,
                ) {
                    state.stats.bytes_out.fetch_add(n, Ordering::Relaxed);
                }
                break;
            }
            Err(ReadError::Disconnected) => break,
        };
        let draining = state.draining.load(Ordering::SeqCst);
        if state.halted.load(Ordering::SeqCst) || (stop.load(Ordering::Relaxed) && !draining) {
            // Hard abort: close without answering — the client retries on a
            // fresh connection and learns the server is gone. (A graceful
            // shutdown sets `draining` first, so requests already read are
            // answered below.)
            break;
        }
        // A fully-read request is in flight until its response is written;
        // graceful shutdown waits for this counter, and the guard makes the
        // decrement panic-safe.
        state
            .stats
            .requests_in_flight
            .fetch_add(1, Ordering::SeqCst);
        let _in_flight = ActiveGuard(&state.stats.requests_in_flight);
        state.stats.requests.fetch_add(1, Ordering::Relaxed);
        if served_on_connection > 0 {
            state.stats.requests_reused.fetch_add(1, Ordering::Relaxed);
        }
        served_on_connection += 1;

        let (status, reason, content_type, body) = if authorized(&request, state) {
            // Per-request panic isolation: a panicking handler answers `500`
            // and the connection closes; the worker (and its siblings'
            // connections) are unaffected.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(&request, state)))
            {
                Ok(answer) => answer,
                Err(_) => {
                    state.stats.panics_recovered.fetch_add(1, Ordering::Relaxed);
                    eprintln!("pmlp-serve: request handler panicked (answered 500)");
                    (
                        500,
                        "Internal Server Error",
                        "text/plain",
                        "internal error: handler panicked\n".to_string(),
                    )
                }
            }
        } else {
            state.stats.auth_failures.fetch_add(1, Ordering::Relaxed);
            (
                401,
                "Unauthorized",
                "text/plain",
                "missing or invalid bearer token\n".to_string(),
            )
        };
        if status >= 400 {
            state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
        }
        let keep_alive = !request.close
            && status != 500
            && !stop.load(Ordering::Relaxed)
            && !state.draining.load(Ordering::SeqCst);
        match respond(&mut stream, status, reason, content_type, &body, keep_alive) {
            Ok(n) => {
                state.stats.bytes_out.fetch_add(n, Ordering::Relaxed);
            }
            Err(_) => break,
        }
        if !keep_alive {
            break;
        }
    }
}

/// Bearer-auth check: a configured token gates everything except the
/// liveness probe.
fn authorized(request: &Request, state: &ServerState) -> bool {
    match &state.token {
        None => true,
        Some(_) if request.path == "/v1/healthz" => true,
        Some(token) => request.bearer.as_deref() == Some(token.as_str()),
    }
}

/// Dispatches one request, returning `(status, reason, content type, body)`.
fn route(request: &Request, state: &ServerState) -> (u16, &'static str, &'static str, String) {
    let not_found = || {
        (
            404,
            "Not Found",
            "text/plain",
            "unknown resource\n".to_string(),
        )
    };
    let backend = state.store.backend();
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "healthz"]) => {
            // Live vs ready: answering at all is liveness; the status code
            // tells a load balancer whether to send new traffic. A draining
            // server is live (it answers) but not ready (`503`).
            let draining = state.draining.load(Ordering::SeqCst);
            let body = Value::Object(vec![
                ("magic".into(), Value::String("pmlp-serve".into())),
                (
                    "store_version".into(),
                    Value::Number(f64::from(pmlp_core::store::STORE_VERSION)),
                ),
                (
                    "status".into(),
                    Value::String(if draining { "draining" } else { "ok" }.into()),
                ),
            ])
            .render_compact();
            if draining {
                (503, "Service Unavailable", "application/json", body)
            } else {
                (200, "OK", "application/json", body)
            }
        }
        ("GET", ["v1", "stats"]) => (200, "OK", "application/json", render_stats(state)),
        ("POST", ["v1", "gc"]) => handle_gc(state, &request.body),
        ("GET", ["v1", "records", name, fp]) => match parse_record_target(name, fp) {
            Some(fingerprint) => match backend.scan(name, fingerprint) {
                Ok(outcome) => {
                    state.stats.scans.fetch_add(1, Ordering::Relaxed);
                    state
                        .stats
                        .records_served
                        .fetch_add(outcome.records.len() as u64, Ordering::Relaxed);
                    let mut body = header_line(fingerprint);
                    body.push('\n');
                    for record in &outcome.records {
                        body.push_str(&record_line(record));
                        body.push('\n');
                    }
                    (200, "OK", "application/jsonl", body)
                }
                Err(err) => (
                    500,
                    "Internal Server Error",
                    "text/plain",
                    format!("{err}\n"),
                ),
            },
            None => not_found(),
        },
        ("POST" | "PUT", ["v1", "records", name, fp]) => match parse_record_target(name, fp) {
            Some(fingerprint) => {
                // Parse every line before appending any: a malformed batch is
                // rejected whole instead of half-applied.
                let mut records = Vec::new();
                for line in request.body.lines().filter(|l| !l.trim().is_empty()) {
                    match parse_record_line(line) {
                        Ok(record) => records.push(record),
                        Err(err) => {
                            return (400, "Bad Request", "text/plain", format!("{err}\n"));
                        }
                    }
                }
                if let Err(err) = backend.append_batch(name, fingerprint, &records) {
                    return (
                        500,
                        "Internal Server Error",
                        "text/plain",
                        format!("{err}\n"),
                    );
                }
                state
                    .stats
                    .records_appended
                    .fetch_add(records.len() as u64, Ordering::Relaxed);
                (204, "No Content", "text/plain", String::new())
            }
            None => not_found(),
        },
        ("GET", ["v1", "docs", name]) if safe_component(name) => {
            state.stats.doc_gets.fetch_add(1, Ordering::Relaxed);
            match backend.get_doc(name) {
                Ok(Some(doc)) => (200, "OK", "application/json", doc),
                Ok(None) => (404, "Not Found", "text/plain", "no such document\n".into()),
                Err(err) => (
                    500,
                    "Internal Server Error",
                    "text/plain",
                    format!("{err}\n"),
                ),
            }
        }
        ("PUT" | "POST", ["v1", "docs", name]) if safe_component(name) => {
            match backend.put_doc(name, &request.body) {
                Ok(()) => {
                    state.stats.doc_puts.fetch_add(1, Ordering::Relaxed);
                    (204, "No Content", "text/plain", String::new())
                }
                Err(err) => (
                    500,
                    "Internal Server Error",
                    "text/plain",
                    format!("{err}\n"),
                ),
            }
        }
        ("DELETE", ["v1", "docs", name]) if safe_component(name) => {
            match backend.remove_doc(name) {
                Ok(()) => {
                    state.stats.doc_deletes.fetch_add(1, Ordering::Relaxed);
                    (204, "No Content", "text/plain", String::new())
                }
                Err(err) => (
                    500,
                    "Internal Server Error",
                    "text/plain",
                    format!("{err}\n"),
                ),
            }
        }
        _ => not_found(),
    }
}

/// `POST /v1/gc`: an online garbage-collection pass. The optional JSON body
/// carries `live` (an array of 16-hex baseline fingerprints to keep; when
/// absent every currently present fingerprint is considered live, making the
/// pass a pure compaction) and `compact_threshold_bytes` (see [`GcPolicy`]).
/// Disk-backed servers run [`LocalJsonlBackend::gc`], which rewrites and
/// drops logs under the lock their appends take; the memory tier compacts
/// every log (it has no files to drop). Answers the [`GcReport`] as JSON.
fn handle_gc(state: &ServerState, body: &str) -> (u16, &'static str, &'static str, String) {
    let bad = |msg: &str| (400, "Bad Request", "text/plain", format!("{msg}\n"));
    let mut policy = GcPolicy::default();
    let mut live: Option<Vec<u64>> = None;
    if !body.trim().is_empty() {
        let Ok(value) = serde::json::parse(body) else {
            return bad("gc body must be a JSON object");
        };
        if let Some(threshold) = value.get("compact_threshold_bytes") {
            match threshold {
                Value::Number(n) if *n >= 0.0 => policy.compact_threshold_bytes = *n as u64,
                _ => return bad("compact_threshold_bytes must be a non-negative number"),
            }
        }
        if let Some(fingerprints) = value.get("live") {
            let Value::Array(items) = fingerprints else {
                return bad("live must be an array of hex fingerprint strings");
            };
            let mut parsed = Vec::with_capacity(items.len());
            for item in items {
                match item.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()) {
                    Some(fp) => parsed.push(fp),
                    None => return bad("live must be an array of hex fingerprint strings"),
                }
            }
            live = Some(parsed);
        }
    }
    state.stats.gc_runs.fetch_add(1, Ordering::Relaxed);
    let report = match &state.store {
        ServerStore::Disk(local) => local.gc(live.as_deref(), &policy),
        ServerStore::Memory(memory) => (|| {
            let mut report = GcReport::default();
            for (name, fingerprint) in memory.logs() {
                report.duplicates_merged += memory.compact(&name, fingerprint)?;
                report.files_kept += 1;
            }
            Ok(report)
        })(),
    };
    match report {
        Ok(report) => (200, "OK", "application/json", render_gc_report(&report)),
        Err(err) => (
            500,
            "Internal Server Error",
            "text/plain",
            format!("{err}\n"),
        ),
    }
}

fn render_gc_report(report: &GcReport) -> String {
    let n = |v: u64| Value::Number(v as f64);
    Value::Object(vec![
        ("magic".into(), Value::String("pmlp-serve-gc".into())),
        ("files_kept".into(), n(report.files_kept as u64)),
        ("files_dropped".into(), n(report.files_dropped as u64)),
        ("bytes_reclaimed".into(), n(report.bytes_reclaimed)),
        (
            "duplicates_merged".into(),
            n(report.duplicates_merged as u64),
        ),
        ("corrupt_dropped".into(), n(report.corrupt_dropped as u64)),
    ])
    .render_pretty()
}

/// Validates a `/v1/records/{name}/{fp}` target: the shard label must be a
/// safe path component and the fingerprint fixed-width hex.
fn parse_record_target(name: &str, fp: &str) -> Option<u64> {
    if !safe_component(name) || fp.len() != 16 {
        return None;
    }
    u64::from_str_radix(fp, 16).ok()
}

fn render_stats(state: &ServerState) -> String {
    let stats = state.stats.snapshot();
    let n = |v: u64| Value::Number(v as f64);
    Value::Object(vec![
        ("magic".into(), Value::String("pmlp-serve-stats".into())),
        (
            "backend".into(),
            Value::String(state.store.backend().describe()),
        ),
        (
            "uptime_secs".into(),
            Value::Number(state.started.elapsed().as_secs_f64()),
        ),
        ("workers".into(), n(state.workers as u64)),
        ("requests".into(), n(stats.requests)),
        ("scans".into(), n(stats.scans)),
        ("records_served".into(), n(stats.records_served)),
        ("records_appended".into(), n(stats.records_appended)),
        ("doc_gets".into(), n(stats.doc_gets)),
        ("doc_puts".into(), n(stats.doc_puts)),
        ("doc_deletes".into(), n(stats.doc_deletes)),
        ("bad_requests".into(), n(stats.bad_requests)),
        ("connections_accepted".into(), n(stats.connections_accepted)),
        ("connections_active".into(), n(stats.connections_active)),
        ("requests_reused".into(), n(stats.requests_reused)),
        ("bytes_in".into(), n(stats.bytes_in)),
        ("bytes_out".into(), n(stats.bytes_out)),
        ("auth_failures".into(), n(stats.auth_failures)),
        ("gc_runs".into(), n(stats.gc_runs)),
        ("requests_in_flight".into(), n(stats.requests_in_flight)),
        ("panics_recovered".into(), n(stats.panics_recovered)),
        (
            "status".into(),
            Value::String(
                if state.draining.load(Ordering::SeqCst) {
                    "draining"
                } else {
                    "ok"
                }
                .into(),
            ),
        ),
        ("resilience".into(), render_resilience(state)),
    ])
    .render_pretty()
}

/// The backend's fault-tolerance counters as a JSON object (all zeros for
/// backends that do not track them — a purely local server has nothing to
/// retry).
fn render_resilience(state: &ServerState) -> Value {
    let r = state.store.backend().resilience().unwrap_or_default();
    let n = |v: usize| Value::Number(v as f64);
    Value::Object(vec![
        ("remote_retries".into(), n(r.remote_retries)),
        ("transient_errors".into(), n(r.transient_errors)),
        ("permanent_errors".into(), n(r.permanent_errors)),
        ("breaker_opens".into(), n(r.breaker_opens)),
        ("breaker_recoveries".into(), n(r.breaker_recoveries)),
        ("journaled_records".into(), n(r.journaled_records)),
        ("replayed_records".into(), n(r.replayed_records)),
        ("journal_dropped".into(), n(r.journal_dropped)),
    ])
}
