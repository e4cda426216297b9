//! Minimal HTTP/1.1 request/response plumbing for the evaluation-cache
//! server: exactly the subset the `pmlp-core` [`RemoteBackend`] client and
//! `curl`-style smoke tests need — request line, the headers that matter
//! (`Content-Length`, `Connection`, `Authorization`), persistent keep-alive
//! responses, and deadline-armed reads so a half-written request (slowloris)
//! can stall a worker for at most the request timeout.

use crate::IDLE_TIMEOUT;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest accepted request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest accepted request body. An append carries every fresh record of
/// an engine batch, artifacts included, so this is generous rather than
/// tight.
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub(crate) struct Request {
    /// `GET`, `POST`, `PUT`, `DELETE`, ...
    pub method: String,
    /// The request target, e.g. `/v1/records/seeds/00000000000000aa`.
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: String,
    /// `true` when the client asked for `Connection: close`.
    pub close: bool,
    /// The token of an `Authorization: Bearer <token>` header, if present.
    pub bearer: Option<String>,
}

/// Why [`read_request`] failed.
#[derive(Debug)]
pub(crate) enum ReadError {
    /// The deadline fired mid-request — a slow or stalled client. Answered
    /// with `408 Request Timeout` (best effort) and a close.
    TimedOut,
    /// The request was malformed or oversized. Answered with `400`.
    Malformed(String),
    /// The peer vanished mid-request; nothing to answer.
    Disconnected,
}

fn timed_out(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one request from `stream` on a persistent connection.
///
/// Returns `Ok(None)` when the peer closed (or went idle past
/// [`IDLE_TIMEOUT`]) **between** requests — the normal end of a keep-alive
/// connection. Once the first byte of a request has arrived, the whole
/// request must land within `request_timeout` (checked via per-read
/// deadlines), or the read fails with [`ReadError::TimedOut`] — the
/// slowloris guard: a stalled sender costs a worker at most that long.
///
/// Every byte read is added to `bytes_in`.
pub(crate) fn read_request(
    stream: &mut TcpStream,
    request_timeout: Duration,
    bytes_in: &mut u64,
) -> Result<Option<Request>, ReadError> {
    let bad = |msg: &str| ReadError::Malformed(msg.to_string());

    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];

    // Between requests the connection may sit idle for `IDLE_TIMEOUT`.
    stream.set_read_timeout(Some(IDLE_TIMEOUT)).ok();
    match stream.read(&mut chunk) {
        Ok(0) => return Ok(None),
        Ok(n) => {
            *bytes_in += n as u64;
            buf.extend_from_slice(&chunk[..n]);
        }
        Err(e) if timed_out(e.kind()) => return Ok(None),
        Err(_) => return Err(ReadError::Disconnected),
    }

    // First byte seen: the rest of the request races `request_timeout`.
    let deadline = Instant::now() + request_timeout;
    let mut read_more = |buf: &mut Vec<u8>, bytes_in: &mut u64| -> Result<(), ReadError> {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or(ReadError::TimedOut)?;
        stream.set_read_timeout(Some(remaining)).ok();
        match stream.read(&mut chunk) {
            Ok(0) => Err(ReadError::Disconnected),
            Ok(n) => {
                *bytes_in += n as u64;
                buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) if timed_out(e.kind()) => Err(ReadError::TimedOut),
            Err(_) => Err(ReadError::Disconnected),
        }
    };

    // Accumulate until the blank line that ends the head.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(bad("request head too large"));
        }
        read_more(&mut buf, bytes_in)?;
    };

    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF8 head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| bad("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("missing method"))?
        .to_string();
    let path = parts.next().ok_or_else(|| bad("missing path"))?.to_string();

    let mut content_length = 0usize;
    let mut close = false;
    let mut bearer = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("authorization") {
                bearer = value
                    .strip_prefix("Bearer ")
                    .or_else(|| value.strip_prefix("bearer "))
                    .map(|t| t.trim().to_string());
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad("request body too large"));
    }

    // The body: whatever followed the head in the buffer, plus the rest.
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        read_more(&mut body, bytes_in)?;
    }
    body.truncate(content_length);
    let body = String::from_utf8(body).map_err(|_| bad("non-UTF8 body"))?;

    Ok(Some(Request {
        method,
        path,
        body,
        close,
        bearer,
    }))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes one response, returning how many bytes went out. `keep_alive`
/// decides the `Connection` header — the client mirrors it.
pub(crate) fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<u64> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    Ok((head.len() + body.len()) as u64)
}
