//! Minimal HTTP/1.1 framing over byte buffers.
//!
//! One message grammar reads both directions: a head scan (bounded line
//! length and header count, UTF-8 lines, a blank line to end it), a
//! header-line rule, a `Content-Length` rule (a duplicate is rejected,
//! `Transfer-Encoding` refused, none means no body) and a body split.
//! [`RequestParser`] applies it to requests, fed by the reactor's
//! non-blocking reads or whole by the in-memory fleet network, and to
//! the peer client's responses, which add only a status line and
//! `Retry-After`. Responses go out with a `Content-Length`, or chunked
//! for streamed batches. Nothing chunked is read; there is no TLS and no
//! HTTP/2 (clients that need more sit behind a reverse proxy).

use std::io::Write as _;

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Upper-case method token (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (path only; queries are kept verbatim).
    pub path: String,
    /// Minor HTTP version: 0 for `HTTP/1.0` (default-close semantics),
    /// 1 for `HTTP/1.1`.
    pub version_minor: u8,
    /// Header `(name, value)` pairs in arrival order; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection closes after this exchange: a `close` token
    /// in `Connection` (list values and repeated headers included, which
    /// RFC 9110 §5.3 treats as one list), or HTTP/1.0 without an explicit
    /// `keep-alive` token.
    pub fn wants_close(&self) -> bool {
        let token = |t: &str| {
            self.headers
                .iter()
                .filter(|(k, _)| k == "connection")
                .flat_map(|(_, v)| v.split(','))
                .any(|item| item.trim().eq_ignore_ascii_case(t))
        };
        token("close") || (self.version_minor == 0 && !token("keep-alive"))
    }
}

/// A response ready to serialise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Seconds for a `Retry-After` header (load-shed responses tell
    /// clients — including peer replicas — when to try again).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// A plain-text response (metrics, errors).
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// The same response with a `Retry-After: seconds` header attached.
    pub fn with_retry_after(mut self, seconds: u64) -> Response {
        self.retry_after = Some(seconds);
        self
    }

    /// The standard reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// One parsed response, as the peer client reads it back.
#[derive(Debug)]
pub(crate) struct ParsedResponse {
    /// The status code.
    pub status: u16,
    /// The `Retry-After` seconds, when the header holds a number.
    pub retry_after: Option<u64>,
    /// The response body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Errors from message parsing.
#[derive(Debug)]
pub enum HttpError {
    /// The message was syntactically invalid.
    Malformed(&'static str),
    /// The declared body exceeds the configured ceiling.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Configured ceiling.
        limit: usize,
    },
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed HTTP message: {what}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// Longest start line / header line accepted.
const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per message.
const MAX_HEADERS: usize = 100;

/// Parses a request line (`METHOD target HTTP/1.x`).
fn parse_request_line(line: &str) -> Result<(String, String, u8), HttpError> {
    let mut parts = line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(HttpError::Malformed("empty request line"))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or(HttpError::Malformed("missing request target"))?
        .to_string();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    Ok((method, path, u8::from(version != "HTTP/1.0")))
}

/// Parses one `Name: value` header line.
fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
    let (name, value) = line
        .split_once(':')
        .ok_or(HttpError::Malformed("header without colon"))?;
    Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
}

/// The declared body length of a parsed head, with the two classic
/// request-smuggling vectors refused: chunked (or any
/// `Transfer-Encoding`) bodies — silently treating one as empty would
/// desynchronise the stream — and duplicate `Content-Length` headers
/// (two parties picking different values), rejected per RFC 9112 §6.3
/// instead of silently taking the first.
fn declared_body_length(headers: &[(String, String)], max_body: usize) -> Result<usize, HttpError> {
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::Malformed("transfer-encoding not supported"));
    }
    let mut lengths = headers.iter().filter(|(k, _)| k == "content-length");
    let length = match (lengths.next(), lengths.next()) {
        (None, _) => 0,
        (Some(_), Some(_)) => return Err(HttpError::Malformed("duplicate content-length")),
        (Some((_, v)), None) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed("bad content-length"))?,
    };
    if length > max_body {
        return Err(HttpError::BodyTooLarge {
            declared: length,
            limit: max_body,
        });
    }
    Ok(length)
}

/// Finds the first complete head at the front of `buffer`: its lines,
/// CR-stripped and UTF-8, and the offset just past the blank line that
/// ends it. `Ok(None)` means the head is not complete yet.
fn scan_head(buffer: &[u8]) -> Result<Option<(Vec<&str>, usize)>, HttpError> {
    let mut lines = Vec::new();
    let mut cursor = 0usize;
    loop {
        let Some(nl) = buffer[cursor..].iter().position(|&b| b == b'\n') else {
            // No terminator yet: enforce the per-line bound on the
            // unterminated tail so a header dribbler cannot balloon
            // the buffer, then wait for more bytes.
            if buffer.len() - cursor > MAX_LINE {
                return Err(HttpError::Malformed("line too long"));
            }
            return Ok(None);
        };
        let mut line = &buffer[cursor..cursor + nl];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        if line.len() > MAX_LINE {
            return Err(HttpError::Malformed("line too long"));
        }
        if line.is_empty() && !lines.is_empty() {
            return Ok(Some((lines, cursor + nl + 1)));
        }
        if line.is_empty() {
            // Leading blank line where the start line belongs.
            return Err(HttpError::Malformed("empty request line"));
        }
        if lines.len() > MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers"));
        }
        lines.push(
            std::str::from_utf8(line).map_err(|_| HttpError::Malformed("non-utf8 header line"))?,
        );
        cursor += nl + 1;
    }
}

/// A parsed message: its start line, its headers, its body.
type Message<S> = (S, Vec<(String, String)>, Vec<u8>);

/// The service's incremental message parser, so it can sit behind
/// non-blocking reads: the reactor [`RequestParser::feed`]s it whatever
/// bytes a readable socket yields, then asks [`RequestParser::try_next`]
/// whether a complete request has accumulated. The peer client reads
/// responses the same way, through `try_response`. Any split of the same
/// byte stream yields the same messages.
#[derive(Debug, Default)]
pub struct RequestParser {
    buffer: Vec<u8>,
}

impl RequestParser {
    /// A parser with an empty buffer.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends freshly-read socket bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a parsed request. Non-zero
    /// between requests means a pipelined request is already waiting.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Tries to parse one complete request off the front of the buffer.
    /// `Ok(None)` means "incomplete — feed more bytes"; a parsed request
    /// consumes its bytes, leaving any pipelined successor buffered.
    ///
    /// # Errors
    ///
    /// [`HttpError::Malformed`] on bad framing, [`HttpError::BodyTooLarge`]
    /// past `max_body` (either poisons the connection: the buffer
    /// position is no longer trustworthy).
    pub fn try_next(&mut self, max_body: usize) -> Result<Option<Request>, HttpError> {
        let message = self.message(max_body, parse_request_line)?;
        Ok(
            message.map(|((method, path, version_minor), headers, body)| Request {
                method,
                path,
                version_minor,
                headers,
                body,
            }),
        )
    }

    /// [`RequestParser::try_next`] for a response: the status line in
    /// place of the request line, and `Retry-After` read.
    pub(crate) fn try_response(
        &mut self,
        max_body: usize,
    ) -> Result<Option<ParsedResponse>, HttpError> {
        let message = self.message(max_body, |line| {
            let code = line.split(' ').nth(1).and_then(|code| code.parse().ok());
            code.ok_or(HttpError::Malformed("bad status line"))
        })?;
        Ok(message.map(|(status, headers, body)| ParsedResponse {
            status,
            retry_after: headers
                .iter()
                .find(|(k, _)| k == "retry-after")
                .and_then(|(_, v)| v.parse().ok()),
            body,
        }))
    }

    /// Takes one complete message off the front of the buffer: the head,
    /// its start line read by `start_line`, the header lines, and the
    /// `Content-Length` body. The bytes stay buffered until the whole
    /// message has arrived.
    fn message<S>(
        &mut self,
        max_body: usize,
        start_line: impl FnOnce(&str) -> Result<S, HttpError>,
    ) -> Result<Option<Message<S>>, HttpError> {
        let Some((lines, head_end)) = scan_head(&self.buffer)? else {
            return Ok(None);
        };
        let start = start_line(lines[0])?;
        let headers = lines[1..]
            .iter()
            .map(|line| parse_header_line(line))
            .collect::<Result<Vec<_>, _>>()?;
        let length = declared_body_length(&headers, max_body)?;
        // Compared as a difference: a declared length near `usize::MAX`
        // must wait, not overflow.
        if self.buffer.len() - head_end < length {
            return Ok(None);
        }
        let body = self.buffer[head_end..head_end + length].to_vec();
        self.buffer.drain(..head_end + length);
        Ok(Some((start, headers, body)))
    }
}

/// Appends a serialised response to `out` — how the reactor loads it
/// into a connection's write buffer — honouring keep-alive (`close`
/// appends `Connection: close`).
pub fn write_response(out: &mut Vec<u8>, response: &Response, close: bool) {
    write!(
        out,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len()
    )
    .expect("writing to a Vec cannot fail");
    if let Some(seconds) = response.retry_after {
        write!(out, "retry-after: {seconds}\r\n").expect("writing to a Vec cannot fail");
    }
    if close {
        out.extend_from_slice(b"connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&response.body);
}

/// A serialised response as owned bytes ([`write_response`] into a new
/// buffer).
pub fn response_bytes(response: &Response, close: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(response.body.len() + 128);
    write_response(&mut out, response, close);
    out
}

/// The head of a chunked (`Transfer-Encoding: chunked`) streaming
/// response. Body bytes follow as [`write_chunk`] frames, closed by
/// [`CHUNKED_TAIL`]; de-chunked, the stream is an ordinary body.
pub fn chunked_head(status: u16, content_type: &str, close: bool) -> Vec<u8> {
    let reason = Response {
        status,
        content_type: "",
        body: Vec::new(),
        retry_after: None,
    };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ntransfer-encoding: chunked\r\n",
        reason.reason(),
    );
    if close {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    head.into_bytes()
}

/// Appends one chunk frame (`{len:x}\r\n{bytes}\r\n`) to `out`. Empty
/// input yields no frame — a zero-length chunk would terminate the
/// stream early.
pub fn write_chunk(out: &mut Vec<u8>, bytes: &[u8]) {
    if bytes.is_empty() {
        return;
    }
    write!(out, "{:x}\r\n", bytes.len()).expect("writing to a Vec cannot fail");
    out.extend_from_slice(bytes);
    out.extend_from_slice(b"\r\n");
}

/// The terminating frame of a chunked response (no trailers).
pub const CHUNKED_TAIL: &[u8] = b"0\r\n\r\n";

#[cfg(test)]
mod tests {
    use super::*;

    /// One whole request's wire bytes through the parser.
    fn parse(text: &str) -> Result<Option<Request>, HttpError> {
        let mut parser = RequestParser::new();
        parser.feed(text.as_bytes());
        parser.try_next(1024)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /v1/synthesize HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/synthesize");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_get_without_body_and_lf_only_lines() {
        let req = parse("GET /healthz HTTP/1.1\nConnection: close\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(req.wants_close());
    }

    #[test]
    fn close_semantics_cover_http10_and_token_lists() {
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.version_minor, 0);
        assert!(req.wants_close(), "HTTP/1.0 defaults to close");
        let req = parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.wants_close(), "explicit keep-alive overrides");
        let req = parse("GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.wants_close(), "close token inside a list counts");
        let req = parse("GET / HTTP/1.1\r\nConnection: keep-alive\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.wants_close(), "repeated headers form one list");
    }

    #[test]
    fn chunked_bodies_are_refused_not_smuggled() {
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Malformed("transfer-encoding not supported"))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 0\r\n\r\nab"),
            Err(HttpError::Malformed("duplicate content-length"))
        ));
    }

    #[test]
    fn empty_buffer_is_not_yet_and_framing_errors_are_typed() {
        assert!(matches!(parse("GET\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse("GET / SPDY/9\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(HttpError::BodyTooLarge { declared: 9999, .. })
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: two\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // An empty buffer is simply "not yet": the parser cannot tell a
        // hangup from a slow client; the reactor sees EOF itself.
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn incremental_parser_handles_split_feeds_and_pipelining() {
        let mut parser = RequestParser::new();
        let wire =
            b"POST /v1/batch HTTP/1.1\r\ncontent-length: 2\r\n\r\nhiGET /healthz HTTP/1.1\r\n\r\n";
        // Byte-at-a-time dribble: no premature parse, no byte lost.
        for (i, byte) in wire.iter().enumerate() {
            parser.feed(std::slice::from_ref(byte));
            if i + 1 < 48 {
                // Head (44 bytes) + body (2) land at byte 46 of this
                // wire; before the body completes, try_next must keep
                // answering "incomplete".
                if i + 1 < 46 {
                    assert!(parser.try_next(1024).unwrap().is_none(), "byte {i}");
                }
            }
        }
        let first = parser.try_next(1024).unwrap().expect("first request");
        assert_eq!(first.method, "POST");
        assert_eq!(first.body, b"hi");
        // The pipelined successor is already buffered and parses next.
        assert!(parser.buffered() > 0);
        let second = parser.try_next(1024).unwrap().expect("second request");
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert_eq!(parser.buffered(), 0);
        assert!(parser.try_next(1024).unwrap().is_none());
    }

    #[test]
    fn incremental_parser_bounds_header_dribble() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\n");
        // An unterminated line longer than MAX_LINE is refused even
        // though no newline ever arrives — the slow-loris memory bound.
        parser.feed(&vec![b'a'; MAX_LINE + 2]);
        assert!(matches!(
            parser.try_next(1024),
            Err(HttpError::Malformed("line too long"))
        ));
    }

    #[test]
    fn responses_serialise_with_length_and_connection() {
        let out = response_bytes(&Response::json(200, "{}".into()), true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        assert!(!text.contains("retry-after"), "absent unless requested");

        let shed = Response::json(503, "{}".into()).with_retry_after(2);
        let text = String::from_utf8(response_bytes(&shed, false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 2\r\n"), "{text}");
        assert!(!text.contains("connection: close"), "{text}");
    }

    #[test]
    fn chunked_framing_round_trips() {
        let head = String::from_utf8(chunked_head(200, "application/json", false)).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(head.contains("transfer-encoding: chunked\r\n"));
        assert!(!head.contains("content-length"), "{head}");
        assert!(head.ends_with("\r\n\r\n"));
        let closing = String::from_utf8(chunked_head(200, "application/json", true)).unwrap();
        assert!(closing.contains("connection: close\r\n"));

        let chunk = |bytes: &[u8]| {
            let mut out = b"head".to_vec();
            write_chunk(&mut out, bytes);
            out
        };
        assert_eq!(chunk(b"hello"), b"head5\r\nhello\r\n");
        assert_eq!(chunk(&[b'x'; 16]), b"head10\r\nxxxxxxxxxxxxxxxx\r\n");
        assert_eq!(chunk(b""), b"head", "empty chunks must be elided");
        assert_eq!(CHUNKED_TAIL, b"0\r\n\r\n");
    }
}
