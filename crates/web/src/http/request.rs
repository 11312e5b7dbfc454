//! HTTP request parsing.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io::BufRead;

use super::urlencoded;

/// Maximum accepted header section size.
const MAX_HEAD: usize = 16 * 1024;
/// Maximum accepted body size (designs and libraries are small).
const MAX_BODY: usize = 4 * 1024 * 1024;

/// Request methods PowerPlay serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `PUT` (v1 design resources)
    Put,
    /// `DELETE` (v1 design resources)
    Delete,
}

impl Method {
    /// Parses the method token.
    pub fn from_token(token: &str) -> Option<Method> {
        match token {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        })
    }
}

/// Error produced while reading a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseRequestError {
    /// The connection closed before a complete request arrived.
    ConnectionClosed,
    /// The request line or headers were malformed.
    Malformed(String),
    /// The method is not supported.
    UnsupportedMethod(String),
    /// The request line or header section exceeded the size limit
    /// (answered with 431 Request Header Fields Too Large).
    HeadTooLarge,
    /// The declared body exceeded the size limit (answered with
    /// 413 Payload Too Large).
    BodyTooLarge,
    /// An I/O error occurred.
    Io(String),
}

impl fmt::Display for ParseRequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseRequestError::ConnectionClosed => write!(f, "connection closed"),
            ParseRequestError::Malformed(what) => write!(f, "malformed request: {what}"),
            ParseRequestError::UnsupportedMethod(m) => write!(f, "unsupported method `{m}`"),
            ParseRequestError::HeadTooLarge => write!(f, "request header section too large"),
            ParseRequestError::BodyTooLarge => write!(f, "request body too large"),
            ParseRequestError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl Error for ParseRequestError {}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    method: Method,
    /// Decoded path, e.g. `/element`.
    path: String,
    /// Raw (undecoded) query string.
    query: String,
    headers: BTreeMap<String, String>,
    body: Vec<u8>,
}

impl Request {
    /// Builds a request in memory (used by the client and tests).
    pub fn new(method: Method, path_and_query: &str) -> Request {
        let (path, query) = match path_and_query.split_once('?') {
            Some((p, q)) => (p.to_owned(), q.to_owned()),
            None => (path_and_query.to_owned(), String::new()),
        };
        Request {
            method,
            path,
            query,
            headers: BTreeMap::new(),
            body: Vec::new(),
        }
    }

    /// The request method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The decoded path component.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The raw query string.
    pub fn query(&self) -> &str {
        &self.query
    }

    /// A header value, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// The request body.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Query parameters, decoded, in order.
    pub fn query_pairs(&self) -> Vec<(String, String)> {
        urlencoded::parse_pairs(&self.query)
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<String> {
        self.query_pairs()
            .into_iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Form fields from an `application/x-www-form-urlencoded` body.
    pub fn form_pairs(&self) -> Vec<(String, String)> {
        urlencoded::parse_pairs(&String::from_utf8_lossy(&self.body))
    }

    /// First form field with the given name.
    pub fn form_param(&self, name: &str) -> Option<String> {
        self.form_pairs()
            .into_iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Whether the client asked to keep the connection open.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) => !v.eq_ignore_ascii_case("close"),
            None => true, // HTTP/1.1 default
        }
    }

    /// Reads one request from a buffered stream, blocking until it is
    /// complete (the client path; the server's readiness reactor uses
    /// the resumable [`Self::parse_prefix`] instead).
    ///
    /// # Errors
    ///
    /// Returns [`ParseRequestError`] on malformed input, size-limit
    /// violations, unsupported methods, or I/O failure.
    pub fn read_from<R: BufRead>(reader: &mut R) -> Result<Request, ParseRequestError> {
        let request_line = read_line(reader)?;
        if request_line.is_empty() {
            return Err(ParseRequestError::ConnectionClosed);
        }
        let (method, target) = parse_request_line(&request_line)?;
        let target = target.to_owned();

        let mut headers = BTreeMap::new();
        let mut head_size = request_line.len();
        loop {
            let line = read_line(reader)?;
            head_size += line.len();
            if head_size > MAX_HEAD {
                return Err(ParseRequestError::HeadTooLarge);
            }
            if line.is_empty() {
                break;
            }
            let (name, value) = parse_header_line(&line)?;
            headers.insert(name, value);
        }

        let body = match declared_body_len(&headers)? {
            0 => Vec::new(),
            len => {
                let mut body = vec![0u8; len];
                reader
                    .read_exact(&mut body)
                    .map_err(|e| ParseRequestError::Io(e.to_string()))?;
                body
            }
        };
        Ok(Self::assemble(method, &target, headers, body))
    }

    /// Attempts to parse one complete request from the front of `buf`
    /// without consuming anything — the resumable entry point for the
    /// readiness reactor, which accumulates bytes as the socket delivers
    /// them and re-polls after every read.
    ///
    /// Returns `Ok(None)` while the request is still incomplete, or
    /// `Ok(Some((request, consumed)))` once `buf[..consumed]` holds a
    /// whole request (pipelined successors may follow at `consumed`).
    /// Leading CRLFs are skipped, per RFC 9112's robustness note.
    ///
    /// # Errors
    ///
    /// Returns [`ParseRequestError`] as soon as the prefix is known to
    /// be unservable: malformed head, unsupported method, or a head or
    /// declared body over the size limits — even if more bytes are still
    /// in flight.
    pub fn parse_prefix(buf: &[u8]) -> Result<Option<(Request, usize)>, ParseRequestError> {
        let skipped = buf
            .iter()
            .take_while(|&&b| b == b'\r' || b == b'\n')
            .count();
        let buf = &buf[skipped..];
        let Some((head_len, after_head)) = find_head_end(buf) else {
            if buf.len() > MAX_HEAD {
                return Err(ParseRequestError::HeadTooLarge);
            }
            return Ok(None);
        };
        if head_len > MAX_HEAD {
            return Err(ParseRequestError::HeadTooLarge);
        }
        let head = std::str::from_utf8(&buf[..head_len])
            .map_err(|_| ParseRequestError::Malformed("non-UTF-8 header section".into()))?;
        let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
        let request_line = lines
            .next()
            .ok_or_else(|| ParseRequestError::Malformed("empty request line".into()))?;
        let (method, target) = parse_request_line(request_line)?;
        let mut headers = BTreeMap::new();
        for line in lines {
            let (name, value) = parse_header_line(line)?;
            headers.insert(name, value);
        }

        let body_len = declared_body_len(&headers)?;
        let total = after_head + body_len;
        if buf.len() < total {
            return Ok(None); // body still arriving
        }
        let body = buf[after_head..total].to_vec();
        let request = Self::assemble(method, target, headers, body);
        Ok(Some((request, skipped + total)))
    }

    fn assemble(
        method: Method,
        target: &str,
        headers: BTreeMap<String, String>,
        body: Vec<u8>,
    ) -> Request {
        let (raw_path, query) = match target.split_once('?') {
            Some((p, q)) => (p, q.to_owned()),
            None => (target, String::new()),
        };
        Request {
            method,
            path: urlencoded::decode(raw_path),
            query,
            headers,
            body,
        }
    }

    /// Sets a header (names are case-insensitive), for tests and
    /// clients building requests programmatically.
    pub fn set_header(&mut self, name: &str, value: &str) {
        self.headers
            .insert(name.to_ascii_lowercase(), value.to_owned());
    }

    /// Sets the body and its `Content-Type`.
    pub fn set_body(&mut self, body: Vec<u8>, content_type: &str) {
        self.headers
            .insert("content-type".into(), content_type.to_owned());
        self.body = body;
    }

    /// Serializes the request for sending (client side). Header names
    /// go out in canonical `Train-Case` regardless of how they were set;
    /// the parser on the far side is case-insensitive either way.
    pub(crate) fn to_bytes(&self, host: &str, keep_alive: bool) -> Vec<u8> {
        let mut target = self.path.clone();
        if !self.query.is_empty() {
            target.push('?');
            target.push_str(&self.query);
        }
        let mut out = format!("{} {} HTTP/1.1\r\nHost: {host}\r\n", self.method, target);
        for (name, value) in &self.headers {
            out.push_str(&format!(
                "{}: {value}\r\n",
                super::canonical_header_case(name)
            ));
        }
        out.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        out.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }
}

/// Parses `METHOD target HTTP/1.x` into its method and target.
fn parse_request_line(line: &str) -> Result<(Method, &str), ParseRequestError> {
    let mut parts = line.split_whitespace();
    let method_token = parts
        .next()
        .ok_or_else(|| ParseRequestError::Malformed("empty request line".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| ParseRequestError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ParseRequestError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseRequestError::Malformed(format!(
            "unsupported version {version}"
        )));
    }
    let method = Method::from_token(method_token)
        .ok_or_else(|| ParseRequestError::UnsupportedMethod(method_token.to_owned()))?;
    Ok((method, target))
}

/// Parses `Name: value` into a lowercased name and trimmed value, so
/// lookups through [`Request::header`] are case-insensitive no matter
/// what casing the peer sent.
fn parse_header_line(line: &str) -> Result<(String, String), ParseRequestError> {
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| ParseRequestError::Malformed(format!("bad header `{line}`")))?;
    Ok((name.trim().to_ascii_lowercase(), value.trim().to_owned()))
}

/// The body length a header section declares, bounded by [`MAX_BODY`].
fn declared_body_len(headers: &BTreeMap<String, String>) -> Result<usize, ParseRequestError> {
    match headers.get("content-length") {
        None => Ok(0),
        Some(len) => {
            let len: usize = len
                .parse()
                .map_err(|_| ParseRequestError::Malformed("bad content-length".into()))?;
            if len > MAX_BODY {
                return Err(ParseRequestError::BodyTooLarge);
            }
            Ok(len)
        }
    }
}

/// Finds the end of the header section: the first line break followed
/// immediately by another (accepting bare-`\n` line endings). Returns
/// `(head_len, bytes_consumed_through_terminator)`.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if buf.len() > i + 1 && buf[i + 1] == b'\n' {
                return Some((i, i + 2));
            }
            if buf.len() > i + 2 && buf[i + 1] == b'\r' && buf[i + 2] == b'\n' {
                return Some((i, i + 3));
            }
        }
        i += 1;
    }
    None
}

fn read_line<R: BufRead>(reader: &mut R) -> Result<String, ParseRequestError> {
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .map_err(|e| ParseRequestError::Io(e.to_string()))?;
    if n == 0 {
        return Ok(String::new());
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    if line.len() > MAX_HEAD {
        return Err(ParseRequestError::HeadTooLarge);
    }
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ParseRequestError> {
        Request::read_from(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_with_query() {
        let req =
            parse("GET /element?name=ucb%2Fmultiplier&user=alice HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
        assert_eq!(req.method(), Method::Get);
        assert_eq!(req.path(), "/element");
        assert_eq!(req.query_param("name").as_deref(), Some("ucb/multiplier"));
        assert_eq!(req.query_param("user").as_deref(), Some("alice"));
        assert_eq!(req.query_param("missing"), None);
        assert!(req.body().is_empty());
    }

    #[test]
    fn parses_post_with_form_body() {
        let body = "bw_a=8&bw_b=16&formula=f+%2F+16";
        let raw = format!(
            "POST /eval HTTP/1.1\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let req = parse(&raw).unwrap();
        assert_eq!(req.method(), Method::Post);
        assert_eq!(req.form_param("bw_a").as_deref(), Some("8"));
        assert_eq!(req.form_param("formula").as_deref(), Some("f / 16"));
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let req = parse("GET / HTTP/1.1\r\nX-Custom-Header: value\r\n\r\n").unwrap();
        assert_eq!(req.header("x-custom-header"), Some("value"));
        assert_eq!(req.header("X-CUSTOM-HEADER"), Some("value"));
    }

    #[test]
    fn keep_alive_defaults() {
        assert!(parse("GET / HTTP/1.1\r\n\r\n").unwrap().keep_alive());
        assert!(!parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .keep_alive());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(matches!(
            parse(""),
            Err(ParseRequestError::ConnectionClosed)
        ));
        assert!(matches!(
            parse("PATCH / HTTP/1.1\r\n\r\n"),
            Err(ParseRequestError::UnsupportedMethod(_))
        ));
        assert!(matches!(
            parse("GET /\r\n\r\n"),
            Err(ParseRequestError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/2\r\n\r\n"),
            Err(ParseRequestError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nBadHeader\r\n\r\n"),
            Err(ParseRequestError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: many\r\n\r\n"),
            Err(ParseRequestError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(parse(&raw), Err(ParseRequestError::BodyTooLarge)));
        // Right at the limit is still accepted (the body just has to
        // actually arrive).
        let body = "x".repeat(100);
        let ok = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn rejects_oversized_header_section() {
        // One huge header line.
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD + 1)
        );
        assert!(matches!(parse(&raw), Err(ParseRequestError::HeadTooLarge)));
        // Many small header lines adding up past the limit.
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEAD / 10) {
            raw.push_str(&format!("X-H{i}: {i:08}\r\n"));
        }
        raw.push_str("\r\n");
        assert!(matches!(parse(&raw), Err(ParseRequestError::HeadTooLarge)));
    }

    #[test]
    fn parses_put_and_delete() {
        let req =
            parse("PUT /api/v1/designs/alice/lum HTTP/1.1\r\nIf-Match: \"3\"\r\n\r\n").unwrap();
        assert_eq!(req.method(), Method::Put);
        assert_eq!(req.header("if-match"), Some("\"3\""));
        let req = parse("DELETE /api/v1/designs/alice/lum HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method(), Method::Delete);
    }

    #[test]
    fn path_is_percent_decoded() {
        let req = parse("GET /doc/ucb%2Fsram HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path(), "/doc/ucb/sram");
    }

    #[test]
    fn client_serialization_roundtrips() {
        let mut req = Request::new(Method::Post, "/element/eval?name=x");
        req.set_body(b"{\"a\":1}".to_vec(), "application/json");
        let bytes = req.to_bytes("example.org", false);
        let parsed = Request::read_from(&mut BufReader::new(bytes.as_slice())).unwrap();
        assert_eq!(parsed.method(), Method::Post);
        assert_eq!(parsed.path(), "/element/eval");
        assert_eq!(parsed.query_param("name").as_deref(), Some("x"));
        assert_eq!(parsed.body(), b"{\"a\":1}");
        assert_eq!(parsed.header("content-type"), Some("application/json"));
    }

    #[test]
    fn serialized_headers_use_canonical_casing_and_lookups_stay_insensitive() {
        let mut req = Request::new(Method::Get, "/");
        req.set_header("X-CUSTOM-marker", "v");
        let keep = String::from_utf8(req.to_bytes("example.org", true)).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"), "got: {keep}");
        assert!(keep.contains("Content-Length: 0\r\n"), "got: {keep}");
        assert!(keep.contains("X-Custom-Marker: v\r\n"), "got: {keep}");
        let close = String::from_utf8(req.to_bytes("example.org", false)).unwrap();
        assert!(close.contains("Connection: close\r\n"), "got: {close}");
        // Whatever casing went over the wire, the receiving parser's
        // lookups are case-insensitive.
        let parsed = Request::read_from(&mut BufReader::new(keep.as_bytes())).unwrap();
        assert_eq!(parsed.header("x-custom-marker"), Some("v"));
        assert_eq!(parsed.header("X-CUSTOM-MARKER"), Some("v"));
        assert_eq!(parsed.header("Connection"), Some("keep-alive"));
    }

    #[test]
    fn parse_prefix_is_resumable_byte_by_byte() {
        let raw = b"GET /a?n=1 HTTP/1.1\r\nHost: x\r\n\r\n";
        for cut in 0..raw.len() - 1 {
            assert_eq!(
                Request::parse_prefix(&raw[..cut]).unwrap(),
                None,
                "cut at {cut} should be incomplete"
            );
        }
        let (req, consumed) = Request::parse_prefix(raw).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(req.path(), "/a");
        assert_eq!(req.query_param("n").as_deref(), Some("1"));
    }

    #[test]
    fn parse_prefix_matches_blocking_parser_on_bodies() {
        let body = "bw_a=8&bw_b=16";
        let raw = format!(
            "POST /eval HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        // Head complete but body short by one byte: incomplete.
        assert_eq!(
            Request::parse_prefix(&raw.as_bytes()[..raw.len() - 1]).unwrap(),
            None
        );
        let (incremental, consumed) = Request::parse_prefix(raw.as_bytes()).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        let blocking = parse(&raw).unwrap();
        assert_eq!(incremental, blocking);
    }

    #[test]
    fn parse_prefix_finds_pipelined_requests_back_to_back() {
        let raw = b"GET /one HTTP/1.1\r\n\r\nGET /two HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (first, n1) = Request::parse_prefix(raw).unwrap().unwrap();
        assert_eq!(first.path(), "/one");
        assert!(first.keep_alive());
        let (second, n2) = Request::parse_prefix(&raw[n1..]).unwrap().unwrap();
        assert_eq!(second.path(), "/two");
        assert!(!second.keep_alive());
        assert_eq!(n1 + n2, raw.len());
    }

    #[test]
    fn parse_prefix_rejects_oversized_prefixes_early() {
        // No terminator in sight but already past the head limit.
        let huge = vec![b'a'; MAX_HEAD + 2];
        assert!(matches!(
            Request::parse_prefix(&huge),
            Err(ParseRequestError::HeadTooLarge)
        ));
        // An oversized declared body is rejected before it arrives.
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            Request::parse_prefix(raw.as_bytes()),
            Err(ParseRequestError::BodyTooLarge)
        ));
    }

    #[test]
    fn parse_prefix_skips_leading_crlf_between_pipelined_requests() {
        let raw = b"\r\nGET / HTTP/1.1\r\n\r\n";
        let (req, consumed) = Request::parse_prefix(raw).unwrap().unwrap();
        assert_eq!(req.path(), "/");
        assert_eq!(consumed, raw.len());
    }
}
