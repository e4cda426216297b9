//! HTTP/1.1 client backend for a `pmlp-serve` evaluation-cache server.
//!
//! The wire format is the store's own sealed-envelope JSONL: a record scan
//! response is byte-compatible with a local record log (header line bound to
//! the baseline fingerprint, then one record per line), so the client reuses
//! the same corruption-tolerant parsing as the local tier. Endpoints:
//!
//! | Method + path | Meaning |
//! |---------------|---------|
//! | `GET /v1/records/{name}/{fp}` | scan one record log |
//! | `POST /v1/records/{name}/{fp}` | append record line(s) |
//! | `GET /v1/docs/{name}` | read a document (404 = absent) |
//! | `PUT /v1/docs/{name}` | write a document |
//! | `DELETE /v1/docs/{name}` | delete a document |
//! | `GET /v1/healthz` | liveness probe |
//! | `GET /v1/stats` | server counters (JSON) |
//! | `POST /v1/gc` | run a garbage-collection pass on the server |
//!
//! The client is deliberately dependency-free (`std::net` only). The
//! authority resolves **once** (at construction, or lazily on the first
//! request when construction-time resolution is unavailable) and requests
//! ride **persistent keep-alive connections** drawn from a small shared pool:
//! a completed request parks its socket for the next one, and a stale parked
//! socket (server restarted, idle timeout fired) gets one free retry on a
//! fresh connection. Fresh-connection failures are classified: *transient*
//! errors (connect refused/reset, timeout, early close, HTTP 5xx) retry with
//! exponential backoff and deterministic jitter up to the configured
//! [`RetryPolicy`]; *permanent* errors (4xx, protocol garbage) fail
//! immediately. An exhausted retry budget is the real dead-server signal a
//! [`TieredStore`](crate::store::TieredStore) opens its circuit breaker on.
//! All sockets carry the configured timeout (connect, read, write), so a
//! dead server fails fast instead of hanging a search.
//!
//! Authentication: a server started with `--token` expects
//! `Authorization: Bearer <token>`; the client learns the token from
//! [`RemoteBackend::with_token`] or inline in the URL
//! (`http://TOKEN@host:port`), which threads through every existing
//! `--remote-store` plumbing unchanged.

use super::backend::{check_doc_name, sanitize_name, ResilienceStats, ScanOutcome, StoreBackend};
use super::{header_matches, hex, parse_record_line, record_line};
use crate::error::CoreError;
use crate::store::EvalRecord;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

fn store_err(context: String) -> CoreError {
    CoreError::Store { context }
}

/// Largest accepted response head; a `pmlp-serve` head is a few lines.
const MAX_RESPONSE_HEAD: usize = 64 * 1024;

/// Most idle keep-alive sockets parked per client. Engines hammer the store
/// from a rayon pool, so a handful of connections covers the realistic
/// concurrency without holding dozens of server workers hostage.
const POOL_CAP: usize = 8;

/// One parsed HTTP response.
#[derive(Debug)]
struct Response {
    status: u16,
    body: String,
}

/// Bounded-retry policy of a [`RemoteBackend`]: how many attempts a request
/// gets and how the exponential backoff between them grows. Only *transient*
/// failures (connect/timeout/reset/5xx) consume retries — permanent errors
/// (4xx, protocol garbage) fail on the first attempt by design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request (1 = no retries).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Upper bound of the exponential backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(400),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (useful for probes that must fail fast).
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// Lifetime fault counters, shared by every clone of one client.
#[derive(Debug, Default)]
struct RemoteCounters {
    retries: AtomicUsize,
    transient_errors: AtomicUsize,
    permanent_errors: AtomicUsize,
}

/// `true` when an I/O error is worth retrying: anything that smells like the
/// network or the peer (refused, reset, timeout, early close) rather than a
/// protocol violation in an otherwise-delivered response.
fn transient_io(e: &std::io::Error) -> bool {
    e.kind() != std::io::ErrorKind::InvalidData
}

/// The remote tier: an HTTP client bound to one `pmlp-serve` base URL.
#[derive(Debug, Clone)]
pub struct RemoteBackend {
    /// `host:port` the server listens on (token stripped).
    authority: String,
    /// Addresses the authority resolved to, filled at most once.
    resolved: Arc<OnceLock<Vec<SocketAddr>>>,
    /// Per-request connect/read/write timeout.
    timeout: Duration,
    /// Bearer token sent as `Authorization` on every request.
    token: Option<String>,
    /// Idle keep-alive connections, shared by clones of this client.
    pool: Arc<Mutex<Vec<TcpStream>>>,
    /// Bounded-retry policy applied to transient failures.
    retry: RetryPolicy,
    /// Lifetime fault counters, shared by clones of this client.
    counters: Arc<RemoteCounters>,
}

impl RemoteBackend {
    /// Creates a client for `url` (`http://host:port` or
    /// `http://TOKEN@host:port`; a trailing slash is tolerated; `https` is
    /// not supported — the store speaks plain HTTP on a trusted network,
    /// typically loopback or a cluster-internal address).
    ///
    /// The authority is resolved here when the resolver cooperates (and never
    /// again); the server is *not* contacted — a client can be constructed
    /// before its server starts, and a hostname that fails to resolve now is
    /// retried on the first request.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] for unsupported schemes or a malformed
    /// authority.
    pub fn new(url: &str) -> Result<Self, CoreError> {
        let trimmed = url.trim();
        let rest = match trimmed.split_once("://") {
            Some(("http", rest)) => rest,
            Some((scheme, _)) => {
                return Err(store_err(format!(
                    "remote store: unsupported scheme `{scheme}` in `{url}` (only http)"
                )))
            }
            None => trimmed,
        };
        let rest = rest.trim_end_matches('/');
        // URL userinfo carries the bearer token: http://TOKEN@host:port.
        let (token, authority) = match rest.split_once('@') {
            Some((token, authority)) if !token.is_empty() => (Some(token.to_string()), authority),
            Some((_, authority)) => (None, authority),
            None => (None, rest),
        };
        if authority.is_empty() || authority.contains('/') {
            return Err(store_err(format!("remote store: malformed URL `{url}`")));
        }
        let client = RemoteBackend {
            authority: authority.to_string(),
            resolved: Arc::new(OnceLock::new()),
            timeout: Duration::from_secs(10),
            token,
            pool: Arc::new(Mutex::new(Vec::new())),
            retry: RetryPolicy::default(),
            counters: Arc::new(RemoteCounters::default()),
        };
        // Resolve eagerly; a failure here (no resolver yet, say) retries on
        // the first request instead of failing construction.
        let _ = client.addrs();
        Ok(client)
    }

    /// Overrides the per-request timeout (connect, read and write).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the bearer token sent with every request (`Authorization:
    /// Bearer <token>`), overriding any token parsed from the URL.
    #[must_use]
    pub fn with_token(mut self, token: &str) -> Self {
        self.token = Some(token.to_string());
        self
    }

    /// Overrides the bounded-retry policy (see [`RetryPolicy`]).
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The `host:port` this client talks to.
    pub fn authority(&self) -> &str {
        &self.authority
    }

    /// The bearer token this client authenticates with, if any.
    pub fn token(&self) -> Option<&str> {
        self.token.as_deref()
    }

    /// The resolved (and cached) socket addresses of the authority.
    fn addrs(&self) -> Result<&[SocketAddr], CoreError> {
        if let Some(addrs) = self.resolved.get() {
            return Ok(addrs);
        }
        let addrs: Vec<SocketAddr> = self
            .authority
            .to_socket_addrs()
            .map_err(|e| store_err(format!("resolve {}: {e}", self.authority)))?
            .collect();
        if addrs.is_empty() {
            return Err(store_err(format!("no address for {}", self.authority)));
        }
        Ok(self.resolved.get_or_init(|| addrs))
    }

    /// Opens (and deadline-arms) a fresh connection.
    fn connect(&self) -> Result<TcpStream, CoreError> {
        // Try every resolved address (a dual-stack `localhost` often lists
        // ::1 first while the server bound 127.0.0.1 — the IPv4 attempt must
        // still go through).
        let mut last_err = None;
        for addr in self.addrs()? {
            match TcpStream::connect_timeout(addr, self.timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(self.timeout)).ok();
                    stream.set_write_timeout(Some(self.timeout)).ok();
                    stream.set_nodelay(true).ok();
                    return Ok(stream);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(store_err(format!(
            "connect {}: {}",
            self.authority,
            last_err.expect("at least one address was tried")
        )))
    }

    /// Takes an idle keep-alive connection out of the pool, if any.
    fn pool_take(&self) -> Option<TcpStream> {
        self.pool.lock().expect("connection pool lock").pop()
    }

    /// Parks a healthy connection for the next request.
    fn pool_put(&self, stream: TcpStream) {
        let mut pool = self.pool.lock().expect("connection pool lock");
        if pool.len() < POOL_CAP {
            pool.push(stream);
        }
    }

    /// One request/response exchange on `stream`. On success the connection
    /// is parked for reuse unless the server asked to close it.
    fn roundtrip(
        &self,
        mut stream: TcpStream,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<Response> {
        let auth = match &self.token {
            Some(token) => format!("Authorization: Bearer {token}\r\n"),
            None => String::new(),
        };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\n{auth}Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            self.authority,
            body.len(),
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        let (response, reusable) = read_response(&mut stream)?;
        if reusable {
            self.pool_put(stream);
        }
        Ok(response)
    }

    /// Deterministic backoff before retry number `retry_no` (1-based):
    /// exponential growth capped at the policy's maximum, plus jitter derived
    /// from a hash of `(authority, path, retry_no)` — reproducible run to
    /// run, yet de-synchronized across workers hitting different paths.
    fn backoff_delay(&self, path: &str, retry_no: u32) -> Duration {
        let exp = self
            .retry
            .base_backoff
            .saturating_mul(1u32 << (retry_no - 1).min(16));
        let capped = exp.min(self.retry.max_backoff);
        let mut fp = crate::store::FingerprintHasher::new();
        fp.mix_bytes(self.authority.as_bytes());
        fp.mix_bytes(path.as_bytes());
        fp.mix_bytes(&retry_no.to_le_bytes());
        let span_ms = (self.retry.base_backoff.as_millis() as u64 / 2).max(1);
        capped + Duration::from_millis(fp.finish() % span_ms)
    }

    /// Counts and builds a *permanent* error (4xx, protocol violation):
    /// dropped on the spot, never retried.
    fn reject(&self, context: String) -> CoreError {
        self.counters
            .permanent_errors
            .fetch_add(1, Ordering::Relaxed);
        store_err(context)
    }

    /// One request/response round trip with bounded retries.
    ///
    /// A stale parked keep-alive connection (the server restarted or timed
    /// the socket out between requests) gets one free retry that is not
    /// charged against the policy. Fresh-connection attempts then classify
    /// every failure: transient ones (connect refused/reset, timeout, early
    /// close, HTTP 5xx) retry with exponential backoff + deterministic
    /// jitter up to the policy's attempt budget; permanent ones (protocol
    /// garbage in a delivered response) fail immediately. Non-5xx HTTP
    /// statuses are returned to the caller — their meaning is per-endpoint.
    fn request(&self, method: &str, path: &str, body: &str) -> Result<Response, CoreError> {
        if let Some(stream) = self.pool_take() {
            match self.roundtrip(stream, method, path, body) {
                Ok(response) if response.status < 500 => return Ok(response),
                // A pooled 5xx or transport error falls through to the
                // fresh-connection attempts below.
                _ => {}
            }
        }
        let attempts = self.retry.attempts.max(1);
        let mut last_failure = String::new();
        for attempt in 1..=attempts {
            if attempt > 1 {
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.backoff_delay(path, attempt - 1));
            }
            let outcome = match self.connect() {
                Ok(stream) => self
                    .roundtrip(stream, method, path, body)
                    .map_err(|e| (transient_io(&e), format!("{method} {path}: {e}"))),
                Err(CoreError::Store { context }) => Err((true, context)),
                Err(e) => Err((true, e.to_string())),
            };
            match outcome {
                Ok(response) if response.status >= 500 => {
                    last_failure = format!("{method} {path}: HTTP {}", response.status);
                }
                Ok(response) => return Ok(response),
                Err((true, failure)) => last_failure = failure,
                Err((false, failure)) => {
                    return Err(self.reject(format!("remote store: {failure} (permanent)")));
                }
            }
        }
        self.counters
            .transient_errors
            .fetch_add(1, Ordering::Relaxed);
        Err(store_err(format!(
            "remote store: {last_failure} (after {attempts} attempt(s))"
        )))
    }

    fn records_path(name: &str, fingerprint: u64) -> String {
        format!("/v1/records/{}/{}", sanitize_name(name), hex(fingerprint))
    }

    /// Liveness probe: `true` when the server answers `GET /v1/healthz`.
    pub fn ping(&self) -> bool {
        self.request("GET", "/v1/healthz", "")
            .map(|r| r.status == 200)
            .unwrap_or(false)
    }

    /// Fetches the server's `/v1/stats` counters as raw JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the server is unreachable or answers
    /// with a non-200 status.
    pub fn stats(&self) -> Result<String, CoreError> {
        let response = self.request("GET", "/v1/stats", "")?;
        if response.status != 200 {
            return Err(self.reject(format!(
                "remote store: stats returned HTTP {}",
                response.status
            )));
        }
        Ok(response.body)
    }

    /// Runs an online garbage-collection pass on the server (`POST /v1/gc`),
    /// returning the server's JSON [`GcReport`](crate::store::GcReport).
    /// `body` is the request JSON (`"{}"` for a pure compaction pass with
    /// default policy; see the serve crate's endpoint docs for the fields).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] when the server is unreachable, rejects
    /// the request or fails the pass.
    pub fn gc(&self, body: &str) -> Result<String, CoreError> {
        let response = self.request("POST", "/v1/gc", body)?;
        if response.status != 200 {
            return Err(self.reject(format!(
                "remote store: gc returned HTTP {}: {}",
                response.status,
                response.body.trim()
            )));
        }
        Ok(response.body)
    }
}

/// Reads one HTTP response off `stream`, returning it plus whether the
/// connection may be reused (the server sent `Content-Length` and did not ask
/// to close).
fn read_response(stream: &mut TcpStream) -> std::io::Result<(Response, bool)> {
    // Protocol violations in a delivered response are `InvalidData`
    // (classified permanent — retrying cannot fix a garbled server); an
    // early close is `UnexpectedEof` (transient — classic restart/reset).
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let eof = |msg: &str| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, msg.to_string());

    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > MAX_RESPONSE_HEAD {
            return Err(bad("response head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(eof("connection closed before response"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF8 head"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut content_length: Option<usize> = None;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?,
                );
            } else if name.eq_ignore_ascii_case("connection")
                && value.trim().eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }

    let mut body = buf[head_end + 4..].to_vec();
    match content_length {
        Some(len) => {
            while body.len() < len {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(eof("connection closed mid-body"));
                }
                body.extend_from_slice(&chunk[..n]);
            }
            body.truncate(len);
        }
        None => {
            // No framing: drain to EOF, which forfeits reuse.
            stream.read_to_end(&mut body)?;
            close = true;
        }
    }
    let body = String::from_utf8(body).map_err(|_| bad("non-UTF8 body"))?;
    Ok((Response { status, body }, !close))
}

impl StoreBackend for RemoteBackend {
    fn describe(&self) -> String {
        format!("remote pmlp-serve at http://{}", self.authority)
    }

    fn resilience(&self) -> Option<ResilienceStats> {
        Some(ResilienceStats {
            remote_retries: self.counters.retries.load(Ordering::Relaxed),
            transient_errors: self.counters.transient_errors.load(Ordering::Relaxed),
            permanent_errors: self.counters.permanent_errors.load(Ordering::Relaxed),
            ..ResilienceStats::default()
        })
    }

    fn scan(&self, name: &str, fingerprint: u64) -> Result<ScanOutcome, CoreError> {
        let path = Self::records_path(name, fingerprint);
        let response = self.request("GET", &path, "")?;
        if response.status != 200 {
            return Err(self.reject(format!(
                "remote store: scan {path} returned HTTP {}",
                response.status
            )));
        }
        let mut lines = response.body.lines();
        match lines.next() {
            Some(header) if header_matches(header, fingerprint) => {}
            _ => {
                return Err(self.reject(format!(
                    "remote store: scan {path} returned a foreign or versionless header"
                )))
            }
        }
        let mut outcome = ScanOutcome::default();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            match parse_record_line(line) {
                Ok(record) => outcome.records.push(record),
                Err(_) => outcome.dropped += 1,
            }
        }
        Ok(outcome)
    }

    fn append(&self, name: &str, fingerprint: u64, record: &EvalRecord) -> Result<(), CoreError> {
        self.append_batch(name, fingerprint, std::slice::from_ref(record))
    }

    fn append_batch(
        &self,
        name: &str,
        fingerprint: u64,
        records: &[EvalRecord],
    ) -> Result<(), CoreError> {
        if records.is_empty() {
            return Ok(());
        }
        let path = Self::records_path(name, fingerprint);
        let mut body = String::new();
        for record in records {
            body.push_str(&record_line(record));
            body.push('\n');
        }
        let response = self.request("POST", &path, &body)?;
        if response.status != 204 {
            return Err(self.reject(format!(
                "remote store: append {path} returned HTTP {}",
                response.status
            )));
        }
        Ok(())
    }

    fn get_doc(&self, name: &str) -> Result<Option<String>, CoreError> {
        check_doc_name(name)?;
        let response = self.request("GET", &format!("/v1/docs/{name}"), "")?;
        match response.status {
            200 => Ok(Some(response.body)),
            404 => Ok(None),
            status => Err(self.reject(format!(
                "remote store: get doc {name} returned HTTP {status}"
            ))),
        }
    }

    fn put_doc(&self, name: &str, contents: &str) -> Result<(), CoreError> {
        check_doc_name(name)?;
        let response = self.request("PUT", &format!("/v1/docs/{name}"), contents)?;
        if response.status != 204 {
            return Err(self.reject(format!(
                "remote store: put doc {name} returned HTTP {}",
                response.status
            )));
        }
        Ok(())
    }

    fn remove_doc(&self, name: &str) -> Result<(), CoreError> {
        check_doc_name(name)?;
        let response = self.request("DELETE", &format!("/v1/docs/{name}"), "")?;
        if response.status != 204 && response.status != 404 {
            return Err(self.reject(format!(
                "remote store: delete doc {name} returned HTTP {}",
                response.status
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_parsing_accepts_http_and_bare_authorities() {
        assert_eq!(
            RemoteBackend::new("http://127.0.0.1:7878")
                .unwrap()
                .authority(),
            "127.0.0.1:7878"
        );
        assert_eq!(
            RemoteBackend::new("http://localhost:8080/")
                .unwrap()
                .authority(),
            "localhost:8080"
        );
        assert_eq!(
            RemoteBackend::new("127.0.0.1:7878").unwrap().authority(),
            "127.0.0.1:7878"
        );
        assert!(RemoteBackend::new("https://x:1").is_err());
        assert!(RemoteBackend::new("http://").is_err());
        assert!(RemoteBackend::new("http://host:1/path").is_err());
    }

    #[test]
    fn url_userinfo_carries_the_bearer_token() {
        let client = RemoteBackend::new("http://s3cr3t@127.0.0.1:7878").unwrap();
        assert_eq!(client.authority(), "127.0.0.1:7878");
        assert_eq!(client.token(), Some("s3cr3t"));
        // with_token overrides the URL's token.
        let client = client.with_token("newer");
        assert_eq!(client.token(), Some("newer"));
        // No token: none parsed.
        assert_eq!(
            RemoteBackend::new("http://127.0.0.1:7878").unwrap().token(),
            None
        );
    }

    #[test]
    fn a_dead_server_errors_instead_of_hanging() {
        // Nothing listens on this port; the client must fail fast (the
        // tiered store converts this error into local-only degradation).
        let client = RemoteBackend::new("http://127.0.0.1:1")
            .unwrap()
            .with_timeout(Duration::from_millis(200))
            .with_retry_policy(RetryPolicy::none());
        assert!(!client.ping());
        assert!(client.scan("seeds", 1).is_err());
        assert!(client.get_doc("m.json").is_err());
    }

    #[test]
    fn transient_failures_are_retried_and_counted() {
        let client = RemoteBackend::new("http://127.0.0.1:1")
            .unwrap()
            .with_timeout(Duration::from_millis(200))
            .with_retry_policy(RetryPolicy {
                attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
            });
        assert!(client.scan("seeds", 1).is_err());
        let stats = client.resilience().unwrap();
        assert_eq!(stats.remote_retries, 2, "two retries after the first try");
        assert_eq!(stats.transient_errors, 1, "one op ultimately failed");
        assert_eq!(stats.permanent_errors, 0);
    }

    /// A one-shot server that answers each accepted connection with the next
    /// canned response (closing every connection), then exits.
    fn canned_server(
        responses: Vec<&'static str>,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for response in responses {
                let (mut stream, _) = listener.accept().unwrap();
                // Read until the head terminator so the client's write lands.
                let mut seen: Vec<u8> = Vec::new();
                let mut chunk = [0u8; 1024];
                while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => seen.extend_from_slice(&chunk[..n]),
                    }
                }
                stream.write_all(response.as_bytes()).ok();
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_5xx_is_retried_until_the_server_recovers() {
        let (addr, handle) = canned_server(vec![
            "HTTP/1.1 503 Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
            "HTTP/1.1 204 No Content\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        ]);
        let client = RemoteBackend::new(&format!("http://{addr}"))
            .unwrap()
            .with_timeout(Duration::from_millis(500))
            .with_retry_policy(RetryPolicy {
                attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
            });
        client
            .put_doc("probe.json", "{}")
            .expect("second attempt must succeed");
        let stats = client.resilience().unwrap();
        assert_eq!(stats.remote_retries, 1, "exactly one retry");
        assert_eq!(stats.transient_errors, 0, "the op succeeded in the end");
        handle.join().unwrap();
    }

    #[test]
    fn a_4xx_is_permanent_and_never_retried() {
        let (addr, handle) = canned_server(vec![
            "HTTP/1.1 401 Unauthorized\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        ]);
        let client = RemoteBackend::new(&format!("http://{addr}"))
            .unwrap()
            .with_timeout(Duration::from_millis(500));
        assert!(client.put_doc("probe.json", "{}").is_err());
        let stats = client.resilience().unwrap();
        assert_eq!(stats.remote_retries, 0, "4xx must not retry");
        assert_eq!(stats.permanent_errors, 1);
        handle.join().unwrap();
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let client = RemoteBackend::new("http://127.0.0.1:1").unwrap();
        let a = client.backoff_delay("/v1/records/seeds/0", 1);
        let b = client.backoff_delay("/v1/records/seeds/0", 1);
        assert_eq!(a, b, "jitter must be deterministic");
        let late = client.backoff_delay("/v1/records/seeds/0", 12);
        assert!(late <= client.retry.max_backoff + client.retry.base_backoff);
        assert!(client.backoff_delay("/v1/records/seeds/0", 2) >= client.retry.base_backoff);
    }
}
