//! A minimal, strict HTTP/1.1 framing layer over blocking sockets.
//!
//! Hand-rolled on purpose: the workspace vendors its few dependencies
//! and an HTTP server framework is exactly the kind of dependency the
//! vendored-only policy exists to avoid. The subset implemented here is
//! what the analysis service needs and nothing more:
//!
//! * `GET`/`POST`/`HEAD` with `Content-Length` bodies (no
//!   `Transfer-Encoding` — chunked requests get `501`);
//! * persistent connections with pipelining (the reader is buffered per
//!   connection, so bytes of request *n+1* that arrive with request *n*
//!   are simply the start of the next parse);
//! * hard limits everywhere a client controls an allocation: request
//!   line and header-line length, header count, and body size, each
//!   failing with the right 4xx before the oversized thing is read.
//!
//! Parsing is deliberately unforgiving — a malformed request closes the
//! connection after the error response, because a parser that "helpfully"
//! resynchronizes inside a byte stream it no longer understands is how
//! request-smuggling bugs happen.

use std::io::{self, BufRead, IoSlice, Write};
use std::ops::Deref;
use std::sync::Arc;

/// Longest accepted request line or single header line, in bytes.
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 100;
/// Default cap on request bodies (the service can configure its own).
pub const DEFAULT_MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Why a request could not be read. [`HttpError::response`] maps each
/// variant to the wire answer (or to silence, when the peer is gone).
#[derive(Debug)]
pub enum HttpError {
    /// Clean EOF at a request boundary — the peer finished and hung up.
    Closed,
    /// The connection died mid-request (EOF inside a line or body):
    /// nothing to answer, nobody listening.
    Truncated,
    /// The read timed out waiting for the rest of a request.
    Timeout,
    /// The request violates the grammar or a header is unusable.
    BadRequest(String),
    /// `Content-Length` exceeds the configured body cap.
    PayloadTooLarge(usize),
    /// A feature this server deliberately does not speak
    /// (`Transfer-Encoding`).
    NotImplemented(String),
    /// Transport failure.
    Io(io::Error),
}

impl HttpError {
    /// The response owed for this error, if the peer can still hear one.
    /// Every produced response closes the connection — see the module
    /// docs on resynchronization.
    pub fn response(&self) -> Option<Response> {
        match self {
            HttpError::Closed | HttpError::Truncated | HttpError::Io(_) => None,
            HttpError::Timeout => Some(Response::error(408, "request timed out").closing()),
            HttpError::BadRequest(msg) => Some(Response::error(400, msg).closing()),
            HttpError::PayloadTooLarge(limit) => Some(
                Response::error(413, &format!("body exceeds the {limit}-byte limit")).closing(),
            ),
            HttpError::NotImplemented(msg) => Some(Response::error(501, msg).closing()),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
            io::ErrorKind::UnexpectedEof => HttpError::Truncated,
            _ => HttpError::Io(e),
        }
    }
}

/// One parsed request. Header names are lowercased; the target is split
/// into `path` and decoded `query` pairs.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, …).
    pub method: String,
    /// The path part of the target, before any `?`.
    pub path: String,
    /// Query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// `(lowercased-name, value)` pairs in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether this request asks to close the connection after the
    /// response (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub close: bool,
    /// Bytes consumed off the wire for this request (line + headers +
    /// body), for the `serve.bytes_in` counter.
    pub wire_bytes: usize,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Last value of query parameter `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Path split on `/` with empty segments dropped:
    /// `/v1/tenants/x/` → `["v1", "tenants", "x"]`.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Reads one line (CRLF- or LF-terminated) without the terminator.
/// Refuses lines longer than [`MAX_LINE_BYTES`]; distinguishes EOF at a
/// boundary (`Ok(None)`) from EOF mid-line ([`HttpError::Truncated`]).
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(HttpError::Truncated)
            };
        }
        let (chunk, done) = match available.iter().position(|&b| b == b'\n') {
            Some(nl) => (&available[..=nl], true),
            None => (available, false),
        };
        if line.len() + chunk.len() > MAX_LINE_BYTES + 2 {
            return Err(HttpError::BadRequest(format!(
                "line exceeds {MAX_LINE_BYTES} bytes"
            )));
        }
        line.extend_from_slice(chunk);
        let consumed = chunk.len();
        reader.consume(consumed);
        if done {
            break;
        }
    }
    while matches!(line.last(), Some(b'\n') | Some(b'\r')) {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| HttpError::BadRequest("non-UTF-8 bytes in request head".into()))
}

/// Minimal percent-decoding for query components; `+` means space.
/// Malformed escapes pass through literally rather than failing the
/// request — query strings are advisory inputs, not framing.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let decoded = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok());
                match decoded {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Reads and parses one request off `reader`.
///
/// # Errors
///
/// Every [`HttpError`] variant; see [`HttpError::response`] for the
/// wire mapping. `max_body` bounds the accepted `Content-Length`.
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    let Some(request_line) = read_line(reader)? else {
        return Err(HttpError::Closed);
    };
    let mut wire_bytes = request_line.len() + 2;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    let http10 = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        _ => {
            return Err(HttpError::BadRequest(format!(
                "unsupported protocol version {version:?}"
            )))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest(format!(
            "malformed method token {method:?}"
        )));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let Some(line) = read_line(reader)? else {
            return Err(HttpError::Truncated);
        };
        wire_bytes += line.len() + 2;
        if line.is_empty() {
            break;
        }
        if headers.len() == MAX_HEADERS {
            return Err(HttpError::BadRequest(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "malformed header line {line:?}"
            )));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadRequest(format!(
                "malformed header name {name:?}"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    if find("transfer-encoding").is_some() {
        return Err(HttpError::NotImplemented(
            "Transfer-Encoding is not supported; send Content-Length".into(),
        ));
    }
    let content_length = match find("content-length") {
        None => 0,
        Some(raw) => raw
            .trim()
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest(format!("unparseable Content-Length {raw:?}")))?,
    };
    if content_length > max_body {
        return Err(HttpError::PayloadTooLarge(max_body));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    wire_bytes += content_length;

    let connection = find("connection").map(str::to_ascii_lowercase);
    let close = match connection.as_deref() {
        Some("close") => true,
        Some("keep-alive") => false,
        _ => http10,
    };

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };

    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
        close,
        wire_bytes,
    })
}

/// A response body: bytes built for this response, or a body kept
/// elsewhere and shared by reference — a tenant's encoded epoch, which
/// every snapshot response of that epoch hands to the socket without a
/// copy. Either way it dereferences to the bytes.
///
/// It is deliberately not `Clone`. A cloned `Shared` body would hold the
/// kept allocation past the response's write, and the tenant recycles a
/// replaced body only once nothing holds it. And without a `Clone` impl
/// of its own, `body.clone()` resolves through [`Deref`] to
/// `Vec<u8>::clone`, so code written when the field was a `Vec<u8>`
/// (`let copy: Vec<u8> = response.body.clone()`) still compiles and
/// copies the bytes out.
#[derive(Debug)]
pub enum Body {
    /// Bytes this response owns.
    Owned(Vec<u8>),
    /// A kept body, held until the response is written.
    Shared(Arc<Vec<u8>>),
}

impl Deref for Body {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        match self {
            Body::Owned(bytes) => bytes,
            Body::Shared(bytes) => bytes,
        }
    }
}

impl PartialEq<Vec<u8>> for Body {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == *other
    }
}

/// One response ready to serialize. Content-Length framing always; the
/// `close` flag additionally emits `Connection: close` and tells the
/// connection loop to stop.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond Content-Length/Content-Type/Connection.
    pub headers: Vec<(String, String)>,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Body,
    /// Close the connection after writing.
    pub close: bool,
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: &serde_json::Value) -> Response {
        Response::json_text(
            status,
            serde_json::to_string(body).unwrap_or_else(|_| "{}".into()),
        )
    }

    /// A JSON response whose text the caller has written.
    pub fn json_text(status: u16, text: String) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: Body::Owned(text.into_bytes()),
            close: false,
        }
    }

    /// A JSON `{"error": …}` response. Application-layer 4xx responses
    /// keep the connection open (the body was fully consumed, so framing
    /// is intact); parse-layer errors close via [`HttpError::response`],
    /// which marks its responses [`closing`](Response::closing).
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, &serde_json::json!({ "error": message }))
    }

    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: Body::Owned(body.as_bytes().to_vec()),
            close: false,
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.headers.push((name.to_string(), value));
        self
    }

    /// Marks the connection for closing after this response.
    pub fn closing(mut self) -> Response {
        self.close = true;
        self
    }

    /// Serializes onto `w`; returns bytes written. `head_only` elides
    /// the body (HEAD) while keeping the true Content-Length. Head and
    /// body go out in one vectored write (one syscall, one segment on a
    /// `TCP_NODELAY` socket), a partial write finishing with `write_all`.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; callers treat them as "peer gone".
    pub fn write_to(&self, w: &mut impl Write, head_only: bool) -> io::Result<usize> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Length: {}\r\nContent-Type: {}\r\n",
            self.status,
            reason(self.status),
            self.body.len(),
            self.content_type,
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        if self.close {
            head.push_str("Connection: close\r\n");
        }
        head.push_str("\r\n");
        let head = head.as_bytes();
        let body: &[u8] = if head_only { &[] } else { self.body.as_slice() };
        let sent = match w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        if sent < head.len() {
            w.write_all(&head[sent..])?;
            w.write_all(body)?;
        } else {
            w.write_all(&body[sent - head.len()..])?;
        }
        w.flush()?;
        Ok(head.len() + body.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(bytes), DEFAULT_MAX_BODY_BYTES)
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let req = parse(
            b"POST /v1/tenants/alpha/ingest?publish=1&x=a%20b HTTP/1.1\r\n\
              Host: localhost\r\nContent-Length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.segments(), ["v1", "tenants", "alpha", "ingest"]);
        assert_eq!(req.query_param("publish"), Some("1"));
        assert_eq!(req.query_param("x"), Some("a b"));
        assert_eq!(req.body, b"body");
        assert!(!req.close);
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let wire = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(&wire[..]);
        let a = read_request(&mut reader, 1024).unwrap();
        let b = read_request(&mut reader, 1024).unwrap();
        assert_eq!(a.path, "/healthz");
        assert_eq!(b.path, "/metrics");
        assert!(matches!(
            read_request(&mut reader, 1024),
            Err(HttpError::Closed)
        ));
    }

    #[test]
    fn framing_violations_are_the_right_errors() {
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
        assert!(matches!(parse(b"GET /x"), Err(HttpError::Truncated)));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(HttpError::Truncated)
        ));
        assert!(matches!(
            parse(b"nonsense\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/9.9\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::NotImplemented(_))
        ));
        let oversized: &[u8] = b"POST /x HTTP/1.1\r\nContent-Length: 99\r\n\r\n";
        assert!(matches!(
            read_request(&mut BufReader::new(oversized), 10),
            Err(HttpError::PayloadTooLarge(10))
        ));
    }

    #[test]
    fn connection_close_semantics() {
        let close = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(close.close);
        let old = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(old.close, "HTTP/1.0 defaults to close");
        let kept = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!kept.close);
    }

    #[test]
    fn responses_serialize_with_length_and_reason() {
        let mut out = Vec::new();
        let n = Response::json(200, &serde_json::json!({"ok": true}))
            .with_header("X-Crowdtz-Epoch", "7".into())
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("X-Crowdtz-Epoch: 7\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
        assert_eq!(n, text.len());
    }

    /// Takes at most `cap` bytes per call and counts the calls.
    struct Capped {
        out: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl Write for Capped {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.cap;
            for buf in bufs {
                let take = buf.len().min(room);
                self.out.extend_from_slice(&buf[..take]);
                room -= take;
            }
            Ok(self.cap - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_and_partial_writes_finish_it() {
        let get = Response::json(200, &serde_json::json!({"ok": true}))
            .with_header("X-Crowdtz-Epoch", "7".into());
        let get_head = "HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\
                        Content-Type: application/json\r\nX-Crowdtz-Epoch: 7\r\n\r\n";
        let close = Response::error(404, "nope").closing();
        let close_head = "HTTP/1.1 404 Not Found\r\nContent-Length: 16\r\n\
                          Content-Type: application/json\r\nConnection: close\r\n\r\n";
        let cases = [
            (&get, false, format!("{get_head}{{\"ok\":true}}")),
            (&get, true, get_head.to_string()),
            (&close, false, format!("{close_head}{{\"error\":\"nope\"}}")),
        ];
        for (response, head_only, want) in &cases {
            let mut all = Capped {
                out: Vec::new(),
                cap: usize::MAX,
                calls: 0,
            };
            let n = response.write_to(&mut all, *head_only).unwrap();
            assert_eq!(String::from_utf8(all.out).unwrap(), *want);
            assert_eq!((n, all.calls), (want.len(), 1));
            for cap in [1, 7, want.len() - 12, want.len() - 1] {
                let mut partial = Capped {
                    out: Vec::new(),
                    cap,
                    calls: 0,
                };
                let n = response.write_to(&mut partial, *head_only).unwrap();
                assert_eq!(String::from_utf8(partial.out).unwrap(), *want, "cap {cap}");
                assert_eq!(n, want.len());
            }
        }
    }
}
