//! Hand-rolled HTTP/1.1 framing over `std::net`.
//!
//! The service plane deliberately avoids external crates (the build
//! environment is offline; see the workspace `vendor/` policy), so this
//! module implements exactly the subset of RFC 9112 the daemon needs —
//! and implements it *defensively*, because the parser sits on the
//! network edge of a long-lived process:
//!
//! * [`RequestParser`] is an incremental, byte-oriented parser: bytes
//!   arrive in arbitrary `read()`-sized chunks (headers may split
//!   anywhere, several pipelined requests may share one chunk) and the
//!   parser yields complete [`Request`]s as they materialize. It never
//!   panics on malformed input; every rejection is a typed
//!   [`ParseError`] carrying the `400`/`413` status the connection loop
//!   answers with. `crates/serve/tests/http_props.rs` fuzzes this
//!   contract.
//! * Keep-alive is first-class: HTTP/1.1 connections persist unless the
//!   client sends `Connection: close` (HTTP/1.0 is close-by-default),
//!   and [`write_response`] emits the matching `Connection:` header.
//! * [`HttpClient`] is the pure-Rust persistent client used by the
//!   smoke mode and the e2e and stress tests; [`http_request`] stays as
//!   the one-shot convenience wrapper.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Largest request body the server will buffer, bytes. ECO batch
/// payloads are a few kilobytes; anything larger is a client bug.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest request head (request line + headers) the parser will buffer
/// before rejecting with `413`.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Maximum number of request headers before the parser rejects with
/// `400`.
pub const MAX_HEADERS: usize = 64;

/// A parse rejection: the HTTP status the connection should answer with
/// (`400` for malformed syntax, `413` for size-limit violations) plus a
/// human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// `400` or `413`.
    pub status: u16,
    /// What was wrong, for the error envelope and logs.
    pub message: String,
}

impl ParseError {
    fn bad(message: impl Into<String>) -> ParseError {
        ParseError {
            status: 400,
            message: message.into(),
        }
    }

    fn too_large(message: impl Into<String>) -> ParseError {
        ParseError {
            status: 413,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target path including any query string, e.g. `/metrics`.
    pub path: String,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: String,
    /// Whether the connection persists after this exchange: HTTP/1.1
    /// default unless `Connection: close`; HTTP/1.0 requires an explicit
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

/// One response about to be written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Optional `Retry-After` header value, seconds — the backpressure
    /// reply (`429`) sets it so clients know when to come back.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A `200 OK` JSON response.
    #[must_use]
    pub fn json(body: String) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body,
            retry_after: None,
        }
    }

    /// A plain-text response with an explicit status.
    #[must_use]
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
            retry_after: None,
        }
    }

    /// A JSON error envelope `{"error": "..."}` with the given status.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: format!("{{\"error\":\"{}\"}}", svt_obs::json::escape_json(message)),
            retry_after: None,
        }
    }

    /// The backpressure reply: `429 Too Many Requests` with a
    /// `Retry-After` hint.
    #[must_use]
    pub fn too_busy(retry_after_s: u64) -> Response {
        let mut r = Response::error(429, "server is at capacity, retry shortly");
        r.retry_after = Some(retry_after_s);
        r
    }
}

/// Canonical reason phrase for the handful of status codes the daemon
/// emits; anything else degrades to a bare numeric status line.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Incremental request parser: push bytes in as they arrive, pull
/// complete requests out. Leftover bytes (pipelined requests) stay
/// buffered for the next [`RequestParser::next_request`] call.
///
/// # Examples
///
/// ```
/// use svt_serve::http::RequestParser;
///
/// let mut p = RequestParser::new();
/// // Bytes may split anywhere — even inside a header name.
/// p.push(b"GET /healthz HTTP/1.1\r\nHo");
/// assert!(p.next_request().unwrap().is_none());
/// p.push(b"st: x\r\n\r\n");
/// let req = p.next_request().unwrap().expect("complete request");
/// assert_eq!(req.method, "GET");
/// assert_eq!(req.path, "/healthz");
/// assert!(req.keep_alive);
/// ```
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
}

impl RequestParser {
    /// An empty parser.
    #[must_use]
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends raw bytes from the connection.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (un-consumed).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Tries to parse one complete request from the buffered bytes.
    ///
    /// Returns `Ok(None)` when more bytes are needed, `Ok(Some(req))`
    /// when a full request (head + body) was consumed. Consumed bytes
    /// are drained; pipelined leftovers remain for the next call.
    ///
    /// # Errors
    ///
    /// [`ParseError`] with status `400` on malformed syntax (bad request
    /// line, bad header, conflicting or non-numeric `Content-Length`,
    /// non-UTF-8 body) or `413` when the head exceeds
    /// [`MAX_HEAD_BYTES`] / the declared body exceeds
    /// [`MAX_BODY_BYTES`]. After an error the connection is
    /// unrecoverable (framing is lost) and must be closed.
    pub fn next_request(&mut self) -> Result<Option<Request>, ParseError> {
        // Robustness (RFC 9112 §2.2): ignore blank line(s) before the
        // request line, e.g. trailing CRLF from a previous exchange.
        let mut start = 0;
        while self.buf[start..].starts_with(b"\r\n") {
            start += 2;
        }
        while self.buf[start..].starts_with(b"\n") {
            start += 1;
        }

        let Some(head_len) = find_head_end(&self.buf[start..]) else {
            if self.buf.len() - start > MAX_HEAD_BYTES {
                return Err(ParseError::too_large(format!(
                    "request head exceeds {MAX_HEAD_BYTES} bytes without terminating"
                )));
            }
            return Ok(None);
        };
        if head_len > MAX_HEAD_BYTES {
            return Err(ParseError::too_large(format!(
                "request head of {head_len} bytes exceeds the {MAX_HEAD_BYTES}-byte limit"
            )));
        }

        let head = &self.buf[start..start + head_len];
        let head_str =
            std::str::from_utf8(head).map_err(|_| ParseError::bad("request head is not UTF-8"))?;
        let parsed = parse_head(head_str)?;

        let body_start = start + head_len;
        let available = self.buf.len() - body_start;
        if available < parsed.content_length {
            return Ok(None);
        }
        let body_bytes = &self.buf[body_start..body_start + parsed.content_length];
        let body = std::str::from_utf8(body_bytes)
            .map_err(|_| ParseError::bad("request body is not UTF-8"))?
            .to_string();
        let request = Request {
            method: parsed.method,
            path: parsed.path,
            body,
            keep_alive: parsed.keep_alive,
        };
        self.buf.drain(..body_start + parsed.content_length);
        Ok(Some(request))
    }
}

/// Finds the end of the request head: the byte length up to and
/// including the blank line (`\r\n\r\n`, or bare `\n\n` for lenient
/// clients). Returns `None` when no terminator is buffered yet.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if buf[i + 1..].starts_with(b"\r\n") {
                return Some(i + 3);
            }
            if buf[i + 1..].starts_with(b"\n") {
                return Some(i + 2);
            }
        }
        i += 1;
    }
    None
}

struct ParsedHead {
    method: String,
    path: String,
    content_length: usize,
    keep_alive: bool,
}

/// Whether `b` is an RFC 9110 token character (header names, methods).
fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

fn parse_head(head: &str) -> Result<ParsedHead, ParseError> {
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");

    // Request line: exactly `METHOD SP TARGET SP HTTP/1.x`, single
    // spaces, no control characters anywhere.
    if request_line.bytes().any(|b| b.is_ascii_control()) {
        return Err(ParseError::bad("control character in request line"));
    }
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => {
            return Err(ParseError::bad(format!(
                "malformed request line `{}`",
                request_line.escape_debug()
            )))
        }
    };
    if method.is_empty() || !method.bytes().all(is_token_byte) {
        return Err(ParseError::bad(format!(
            "invalid method `{}`",
            method.escape_debug()
        )));
    }
    if !path.starts_with('/') || path.bytes().any(|b| !b.is_ascii_graphic()) {
        return Err(ParseError::bad(format!(
            "invalid request target `{}`",
            path.escape_debug()
        )));
    }
    let minor = version
        .strip_prefix("HTTP/1.")
        .and_then(|m| m.parse::<u8>().ok())
        .filter(|m| *m <= 1);
    let Some(minor) = minor else {
        return Err(ParseError::bad(format!(
            "unsupported protocol version `{}`",
            version.escape_debug()
        )));
    };

    let mut content_length: Option<usize> = None;
    let mut connection_close = false;
    let mut connection_keep_alive = false;
    let mut header_count = 0usize;
    for line in lines {
        if line.is_empty() {
            continue; // the blank terminator line
        }
        header_count += 1;
        if header_count > MAX_HEADERS {
            return Err(ParseError::bad(format!(
                "more than {MAX_HEADERS} request headers"
            )));
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            return Err(ParseError::bad("obsolete header line folding"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::bad(format!(
                "malformed header `{}`",
                line.escape_debug()
            )));
        };
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(ParseError::bad(format!(
                "invalid header name `{}`",
                name.escape_debug()
            )));
        }
        let value = value.trim();
        if value.bytes().any(|b| b.is_ascii_control()) {
            return Err(ParseError::bad(format!(
                "control character in header `{name}`"
            )));
        }
        if name.eq_ignore_ascii_case("content-length") {
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseError::bad(format!("bad content-length `{value}`")));
            }
            let parsed: u128 = value
                .parse()
                .map_err(|_| ParseError::bad(format!("bad content-length `{value}`")))?;
            if parsed > MAX_BODY_BYTES as u128 {
                return Err(ParseError::too_large(format!(
                    "declared body of {parsed} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                )));
            }
            let parsed = parsed as usize;
            match content_length {
                Some(existing) if existing != parsed => {
                    return Err(ParseError::bad(format!(
                        "conflicting content-length values {existing} and {parsed}"
                    )));
                }
                _ => content_length = Some(parsed),
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ParseError::bad("transfer-encoding is not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    connection_close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    connection_keep_alive = true;
                }
            }
        }
    }

    let keep_alive = if minor >= 1 {
        !connection_close
    } else {
        connection_keep_alive && !connection_close
    };
    Ok(ParsedHead {
        method: method.to_string(),
        path: path.to_string(),
        content_length: content_length.unwrap_or(0),
        keep_alive,
    })
}

/// Writes one response and flushes. `close` controls the `Connection:`
/// header; when `true` the caller drops the stream afterwards.
///
/// # Errors
///
/// Propagates socket write failures as a message (the connection loop
/// logs and moves on — a client that hung up mid-response is not
/// fatal).
pub fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    close: bool,
) -> Result<(), String> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    if let Some(after) = response.retry_after {
        head.push_str(&format!("Retry-After: {after}\r\n"));
    }
    head.push_str(if close {
        "Connection: close\r\n\r\n"
    } else {
        "Connection: keep-alive\r\n\r\n"
    });
    // One coalesced write: head and body in separate small writes
    // interact with Nagle + delayed ACK and cost ~40 ms per response.
    let mut wire = Vec::with_capacity(head.len() + response.body.len());
    wire.extend_from_slice(head.as_bytes());
    wire.extend_from_slice(response.body.as_bytes());
    stream
        .write_all(&wire)
        .and_then(|()| stream.flush())
        .map_err(|e| format!("write response: {e}"))
}

/// One parsed response, as read by [`HttpClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Raw `(name, value)` header pairs in wire order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// First header value with the given case-insensitive name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the server asked to close the connection.
    #[must_use]
    pub fn close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Persistent pure-Rust HTTP/1.1 client: one TCP connection reused
/// across requests (keep-alive), `Content-Length` framed responses.
/// Used by the smoke mode and the e2e/stress tests.
///
/// # Examples
///
/// ```no_run
/// use svt_serve::http::HttpClient;
///
/// let mut client = HttpClient::connect("127.0.0.1:9290")?;
/// let (status, body) = client.send("GET", "/healthz", "")?;
/// assert_eq!(status, 200);
/// let (status, _) = client.send("GET", "/metrics", "")?; // same connection
/// assert_eq!(status, 200);
/// # Ok::<(), String>(())
/// ```
pub struct HttpClient {
    addr: String,
    stream: TcpStream,
    rbuf: Vec<u8>,
    closed: bool,
}

impl HttpClient {
    /// Connects with a 10 s connect timeout and 120 s read timeout.
    ///
    /// # Errors
    ///
    /// Returns a message on resolve/connect failure.
    pub fn connect(addr: &str) -> Result<HttpClient, String> {
        let sockaddr = addr
            .to_socket_addrs()
            .map_err(|e| format!("resolve {addr}: {e}"))?
            .next()
            .ok_or_else(|| format!("no address for {addr}"))?;
        let stream = TcpStream::connect_timeout(&sockaddr, Duration::from_secs(10))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("set timeout: {e}"))?;
        Ok(HttpClient {
            addr: addr.to_string(),
            stream,
            rbuf: Vec::new(),
            closed: false,
        })
    }

    /// Overrides the read timeout (tests use short ones).
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&mut self, timeout: Duration) -> Result<(), String> {
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| format!("set timeout: {e}"))
    }

    /// Sends one request on the persistent connection and returns
    /// `(status, body)`.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure, a malformed response, or when
    /// the server closed the connection on a previous exchange.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let response = self.send_full(method, path, body)?;
        Ok((response.status, response.body))
    }

    /// [`HttpClient::send`] returning the full parsed response
    /// (status, headers, body) — the stress tests read `Retry-After`.
    ///
    /// # Errors
    ///
    /// See [`HttpClient::send`].
    pub fn send_full(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<HttpResponse, String> {
        if self.closed {
            return Err("connection was closed by the server".to_string());
        }
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            self.addr,
            body.len()
        );
        let mut wire = Vec::with_capacity(head.len() + body.len());
        wire.extend_from_slice(head.as_bytes());
        wire.extend_from_slice(body.as_bytes());
        self.stream
            .write_all(&wire)
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("send request: {e}"))?;
        let response = read_response(&mut self.stream, &mut self.rbuf)?;
        if response.close() {
            self.closed = true;
        }
        Ok(response)
    }
}

/// Reads one `Content-Length`-framed response from `stream`, buffering
/// across reads in `rbuf` (leftover bytes stay for the next response).
fn read_response(stream: &mut TcpStream, rbuf: &mut Vec<u8>) -> Result<HttpResponse, String> {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(end) = find_head_end(rbuf) {
            break end;
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("read response: {e}"))?;
        if n == 0 {
            return Err("connection closed before response head".to_string());
        }
        rbuf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&rbuf[..head_end])
        .map_err(|_| "response head is not UTF-8".to_string())?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed response header `{line}`"));
        };
        let value = value.trim().to_string();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| format!("bad response content-length `{value}`"))?;
        }
        headers.push((name.to_string(), value));
    }

    while rbuf.len() < head_end + content_length {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("read response body: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".to_string());
        }
        rbuf.extend_from_slice(&chunk[..n]);
    }
    let body = std::str::from_utf8(&rbuf[head_end..head_end + content_length])
        .map_err(|_| "response body is not UTF-8".to_string())?
        .to_string();
    rbuf.drain(..head_end + content_length);
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// One-shot pure-Rust HTTP client: sends one request with
/// `Connection: close`, returns `(status, body)`.
///
/// # Errors
///
/// Returns a message on connect/write/read failure or an unparseable
/// response.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let sockaddr = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("no address for {addr}"))?;
    let mut stream = TcpStream::connect_timeout(&sockaddr, Duration::from_secs(10))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let _ = stream.set_nodelay(true);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut wire = Vec::with_capacity(head.len() + body.len());
    wire.extend_from_slice(head.as_bytes());
    wire.extend_from_slice(body.as_bytes());
    stream
        .write_all(&wire)
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send request: {e}"))?;
    let mut rbuf = Vec::new();
    let response = read_response(&mut stream, &mut rbuf)?;
    Ok((response.status, response.body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn parse_one(raw: &[u8]) -> Result<Option<Request>, ParseError> {
        let mut p = RequestParser::new();
        p.push(raw);
        p.next_request()
    }

    #[test]
    fn request_and_response_round_trip_over_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut parser = RequestParser::new();
            let mut chunk = [0u8; 1024];
            let req = loop {
                if let Some(req) = parser.next_request().unwrap() {
                    break req;
                }
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "client hung up early");
                parser.push(&chunk[..n]);
            };
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/eco");
            assert_eq!(req.body, "{\"k\":1}");
            write_response(&mut stream, &Response::json("{\"ok\":true}".into()), true).unwrap();
        });
        let (status, body) = http_request(&addr.to_string(), "POST", "/eco", "{\"k\":1}").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        server.join().unwrap();
    }

    #[test]
    fn pipelined_requests_parse_in_order_from_one_buffer() {
        let mut p = RequestParser::new();
        p.push(b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.0\r\n\r\n");
        let a = p.next_request().unwrap().unwrap();
        assert_eq!((a.method.as_str(), a.path.as_str()), ("GET", "/a"));
        assert!(a.keep_alive, "HTTP/1.1 defaults to keep-alive");
        let b = p.next_request().unwrap().unwrap();
        assert_eq!(b.body, "hi");
        let c = p.next_request().unwrap().unwrap();
        assert_eq!(c.path, "/c");
        assert!(!c.keep_alive, "HTTP/1.0 defaults to close");
        assert!(p.next_request().unwrap().is_none());
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn split_boundaries_never_lose_or_corrupt_a_request() {
        let raw = b"POST /eco HTTP/1.1\r\nContent-Length: 7\r\nHost: localhost\r\n\r\n{\"k\":1}";
        for split in 0..raw.len() {
            let mut p = RequestParser::new();
            p.push(&raw[..split]);
            let early = p.next_request().unwrap();
            if let Some(req) = early {
                panic!("complete request from a {split}-byte prefix: {req:?}");
            }
            p.push(&raw[split..]);
            let req = p.next_request().unwrap().expect("complete after push");
            assert_eq!(req.body, "{\"k\":1}", "split at {split}");
        }
    }

    #[test]
    fn malformed_inputs_reject_with_400() {
        for raw in [
            b"GET\r\n\r\n".as_slice(),
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x SPDY/9\r\n\r\n",
            b"GET /x HTTP/2.0\r\n\r\n",
            b"G\x01T /x HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbad name: v\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: twelve\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n",
            b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"GET /x HTTP/1.1\r\nHost: a\r\n v-fold\r\n\r\n",
        ] {
            let err = parse_one(raw).expect_err(&format!("{}", String::from_utf8_lossy(raw)));
            assert_eq!(err.status, 400, "{}: {err}", String::from_utf8_lossy(raw));
        }
    }

    #[test]
    fn size_limits_reject_with_413() {
        let oversized = format!(
            "POST /eco HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse_one(oversized.as_bytes()).unwrap_err().status, 413);

        // A head that never terminates trips the limit too.
        let mut p = RequestParser::new();
        p.push(b"GET /x HTTP/1.1\r\n");
        p.push(&vec![b'a'; MAX_HEAD_BYTES + 2]);
        assert_eq!(p.next_request().unwrap_err().status, 413);
    }

    #[test]
    fn duplicate_identical_content_lengths_are_tolerated() {
        let req =
            parse_one(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok")
                .unwrap()
                .unwrap();
        assert_eq!(req.body, "ok");
    }

    #[test]
    fn connection_header_drives_keep_alive() {
        let close = parse_one(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!close.keep_alive);
        let ka10 = parse_one(b"GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(ka10.keep_alive);
    }

    #[test]
    fn persistent_client_reuses_one_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut parser = RequestParser::new();
            let mut chunk = [0u8; 1024];
            for i in 0..3 {
                let _req = loop {
                    if let Some(req) = parser.next_request().unwrap() {
                        break req;
                    }
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0);
                    parser.push(&chunk[..n]);
                };
                let close = i == 2;
                write_response(
                    &mut stream,
                    &Response::json(format!("{{\"i\":{i}}}")),
                    close,
                )
                .unwrap();
            }
            // Only ever one accepted connection: reaching here proves reuse.
        });
        let mut client = HttpClient::connect(&addr.to_string()).unwrap();
        for i in 0..3 {
            let (status, body) = client.send("GET", "/n", "").unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, format!("{{\"i\":{i}}}"));
        }
        assert!(client.send("GET", "/n", "").is_err(), "server closed");
        server.join().unwrap();
    }

    #[test]
    fn retry_after_header_round_trips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut parser = RequestParser::new();
            let mut chunk = [0u8; 1024];
            loop {
                if parser.next_request().unwrap().is_some() {
                    break;
                }
                let n = stream.read(&mut chunk).unwrap();
                parser.push(&chunk[..n]);
            }
            write_response(&mut stream, &Response::too_busy(1), true).unwrap();
        });
        let mut client = HttpClient::connect(&addr.to_string()).unwrap();
        let response = client.send_full("GET", "/x", "").unwrap();
        assert_eq!(response.status, 429);
        assert_eq!(response.header("retry-after"), Some("1"));
        assert!(response.close());
        server.join().unwrap();
    }
}
