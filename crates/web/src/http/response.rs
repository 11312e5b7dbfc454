//! HTTP response construction and serialization.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use super::stream::{OnStreamOpen, StreamHandle};

/// Response status codes PowerPlay emits, plus any other code a client
/// receives from a remote server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// 200
    Ok,
    /// 201 (a PUT created a new design)
    Created,
    /// 302 (post-redirect-get after form submissions)
    Found,
    /// 304 (conditional GET whose `If-None-Match` matched the ETag)
    NotModified,
    /// 400
    BadRequest,
    /// 401 (password-protected instances)
    Unauthorized,
    /// 404
    NotFound,
    /// 405
    MethodNotAllowed,
    /// 408 (a read deadline expired mid-request on the reactor)
    RequestTimeout,
    /// 409 (stale `If-Match` revision on a PUT — optimistic concurrency)
    Conflict,
    /// 413 (body over the server's size limit)
    PayloadTooLarge,
    /// 428 (a PUT over an existing design without `If-Match`)
    PreconditionRequired,
    /// 431 (header section over the server's size limit)
    RequestHeaderFieldsTooLarge,
    /// 500
    InternalServerError,
    /// 503 (worker pool saturated; try again)
    ServiceUnavailable,
    /// A code PowerPlay never emits (410, 429, 502, …), kept as received
    /// by the client.
    Other(u16),
}

impl Status {
    /// The status for a received numeric code.
    pub fn from_code(code: u16) -> Status {
        match code {
            200 => Status::Ok,
            201 => Status::Created,
            302 => Status::Found,
            304 => Status::NotModified,
            400 => Status::BadRequest,
            401 => Status::Unauthorized,
            404 => Status::NotFound,
            405 => Status::MethodNotAllowed,
            408 => Status::RequestTimeout,
            409 => Status::Conflict,
            413 => Status::PayloadTooLarge,
            428 => Status::PreconditionRequired,
            431 => Status::RequestHeaderFieldsTooLarge,
            500 => Status::InternalServerError,
            503 => Status::ServiceUnavailable,
            other => Status::Other(other),
        }
    }

    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::Created => 201,
            Status::Found => 302,
            Status::NotModified => 304,
            Status::BadRequest => 400,
            Status::Unauthorized => 401,
            Status::NotFound => 404,
            Status::MethodNotAllowed => 405,
            Status::RequestTimeout => 408,
            Status::Conflict => 409,
            Status::PayloadTooLarge => 413,
            Status::PreconditionRequired => 428,
            Status::RequestHeaderFieldsTooLarge => 431,
            Status::InternalServerError => 500,
            Status::ServiceUnavailable => 503,
            Status::Other(code) => code,
        }
    }

    /// Reason phrase.
    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::Created => "Created",
            Status::Found => "Found",
            Status::NotModified => "Not Modified",
            Status::BadRequest => "Bad Request",
            Status::Unauthorized => "Unauthorized",
            Status::NotFound => "Not Found",
            Status::MethodNotAllowed => "Method Not Allowed",
            Status::RequestTimeout => "Request Timeout",
            Status::Conflict => "Conflict",
            Status::PayloadTooLarge => "Payload Too Large",
            Status::PreconditionRequired => "Precondition Required",
            Status::RequestHeaderFieldsTooLarge => "Request Header Fields Too Large",
            Status::InternalServerError => "Internal Server Error",
            Status::ServiceUnavailable => "Service Unavailable",
            Status::Other(_) => "Unknown",
        }
    }
}

/// An HTTP response under construction.
pub struct Response {
    status: Status,
    headers: BTreeMap<String, String>,
    body: Vec<u8>,
    /// Present on stream responses ([`Response::event_stream`]): the
    /// reactor writes the head and `body` (the initial events) without
    /// a `Content-Length`, converts the connection into a long-lived
    /// writer, and fires the callback with its [`StreamHandle`].
    stream: Option<Arc<Mutex<Option<OnStreamOpen>>>>,
}

impl Clone for Response {
    fn clone(&self) -> Response {
        Response {
            status: self.status,
            headers: self.headers.clone(),
            body: self.body.clone(),
            // The open callback is FnOnce; clones share it (first caller
            // of `take_on_open` wins). Responses are cloned only on the
            // client/test side, never on the serving hot path.
            stream: self.stream.clone(),
        }
    }
}

impl PartialEq for Response {
    fn eq(&self, other: &Response) -> bool {
        self.status == other.status
            && self.headers == other.headers
            && self.body == other.body
            && self.stream.is_none() == other.stream.is_none()
    }
}

impl std::fmt::Debug for Response {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Response")
            .field("status", &self.status)
            .field("headers", &self.headers)
            .field("body_len", &self.body.len())
            .field("stream", &self.stream.is_some())
            .finish()
    }
}

impl Response {
    /// An empty response with the given status.
    pub fn new(status: Status) -> Response {
        Response {
            status,
            headers: BTreeMap::new(),
            body: Vec::new(),
            stream: None,
        }
    }

    /// A 200 `text/event-stream` response that converts its connection
    /// into a long-lived stream. `initial` is the SSE-framed prologue
    /// (snapshot / replayed events) written with the head; `on_open`
    /// fires on the reactor thread with the connection's
    /// [`StreamHandle`] once the stream is live. Handlers served outside
    /// the reactor (unit tests calling the app directly) see a plain
    /// response whose body is the prologue.
    pub fn event_stream(
        initial: impl Into<Vec<u8>>,
        on_open: impl FnOnce(StreamHandle) + Send + 'static,
    ) -> Response {
        let mut r = Response::new(Status::Ok);
        r.set_header("Content-Type", "text/event-stream");
        r.set_header("Cache-Control", "no-cache");
        r.body = initial.into();
        r.stream = Some(Arc::new(Mutex::new(Some(Box::new(on_open)))));
        r
    }

    /// True for stream responses ([`Response::event_stream`]).
    pub fn is_stream(&self) -> bool {
        self.stream.is_some()
    }

    /// Takes the stream-open callback (at most once across clones).
    pub(crate) fn take_on_open(&self) -> Option<OnStreamOpen> {
        self.stream
            .as_ref()?
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }

    /// A 200 HTML page.
    pub fn html(body: impl Into<String>) -> Response {
        let mut r = Response::new(Status::Ok);
        r.set_header("Content-Type", "text/html; charset=utf-8");
        r.body = body.into().into_bytes();
        r
    }

    /// A 200 JSON document.
    pub fn json(body: impl Into<String>) -> Response {
        Response::json_with_status(Status::Ok, body)
    }

    /// A JSON document with an explicit status — structured error
    /// bodies (diagnostics) on 4xx responses.
    pub fn json_with_status(status: Status, body: impl Into<String>) -> Response {
        let mut r = Response::new(status);
        r.set_header("Content-Type", "application/json");
        r.body = body.into().into_bytes();
        r
    }

    /// A 200 body with an explicit content type — e.g. the Prometheus
    /// text exposition on `/metrics`.
    pub fn with_content_type(content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        let mut r = Response::new(Status::Ok);
        r.set_header("Content-Type", content_type);
        r.body = body.into();
        r
    }

    /// A 302 redirect.
    pub fn redirect(location: &str) -> Response {
        let mut r = Response::new(Status::Found);
        r.set_header("Location", location);
        r
    }

    /// An error page with a plain-text body.
    pub fn error(status: Status, message: &str) -> Response {
        let mut r = Response::new(status);
        r.set_header("Content-Type", "text/plain; charset=utf-8");
        r.body = message.as_bytes().to_vec();
        r
    }

    /// The response status.
    pub fn status(&self) -> Status {
        self.status
    }

    /// A header value by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// Sets a header.
    pub fn set_header(&mut self, name: &str, value: &str) {
        self.headers
            .insert(name.to_ascii_lowercase(), value.to_owned());
    }

    /// The body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// The body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    pub(crate) fn from_parts(
        status: Status,
        headers: BTreeMap<String, String>,
        body: Vec<u8>,
    ) -> Response {
        Response {
            status,
            headers,
            body,
            stream: None,
        }
    }

    /// Writes the response to a stream (server side). Header names are
    /// stored lowercased for case-insensitive lookup but serialized in
    /// canonical `Train-Case` — matching the casing the request builder
    /// emits, so neither side depends on the other's case handling.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_to<W: Write>(&self, writer: &mut W, keep_alive: bool) -> io::Result<()> {
        use std::fmt::Write as _;
        // One allocation for the whole head; this runs once per response
        // on the serving hot path.
        let mut head = String::with_capacity(96 + self.headers.len() * 48);
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\n",
            self.status.code(),
            self.status.reason()
        );
        for (name, value) in &self.headers {
            let _ = write!(head, "{}: {value}\r\n", super::canonical_header_case(name));
        }
        let _ = write!(head, "Content-Length: {}\r\n", self.body.len());
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        writer.write_all(head.as_bytes())?;
        writer.write_all(&self.body)?;
        writer.flush()
    }

    /// Serializes a stream response's head plus initial events: no
    /// `Content-Length` (the body runs until the connection closes) and
    /// `Connection: close` so byte-counting clients read to EOF.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub(crate) fn write_stream_head<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        use std::fmt::Write as _;
        let mut head = String::with_capacity(96 + self.headers.len() * 48);
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\n",
            self.status.code(),
            self.status.reason()
        );
        for (name, value) in &self.headers {
            let _ = write!(head, "{}: {value}\r\n", super::canonical_header_case(name));
        }
        head.push_str("Connection: close\r\n\r\n");
        writer.write_all(head.as_bytes())?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codes() {
        assert_eq!(Status::Ok.code(), 200);
        assert_eq!(Status::Created.code(), 201);
        assert_eq!(Status::NotFound.code(), 404);
        assert_eq!(Status::RequestTimeout.code(), 408);
        assert_eq!(Status::RequestTimeout.reason(), "Request Timeout");
        assert_eq!(Status::Conflict.code(), 409);
        assert_eq!(Status::PreconditionRequired.code(), 428);
        assert_eq!(Status::Found.reason(), "Found");
        assert_eq!(Status::PayloadTooLarge.code(), 413);
        assert_eq!(Status::RequestHeaderFieldsTooLarge.code(), 431);
        assert_eq!(Status::ServiceUnavailable.code(), 503);
        for code in [200, 304, 404, 410, 429, 500, 502, 503] {
            assert_eq!(Status::from_code(code).code(), code);
        }
        assert_eq!(Status::from_code(500), Status::InternalServerError);
        assert_eq!(Status::from_code(410), Status::Other(410));
    }

    #[test]
    fn html_response_has_content_type() {
        let r = Response::html("<html></html>");
        assert_eq!(r.status(), Status::Ok);
        assert_eq!(r.header("content-type"), Some("text/html; charset=utf-8"));
        assert_eq!(r.body_text(), "<html></html>");
    }

    #[test]
    fn redirect_carries_location() {
        let r = Response::redirect("/menu?user=alice");
        assert_eq!(r.status(), Status::Found);
        assert_eq!(r.header("Location"), Some("/menu?user=alice"));
    }

    #[test]
    fn serialization_contains_length_and_connection() {
        let r = Response::json("{}");
        let mut out = Vec::new();
        r.write_to(&mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"), "got: {text}");
        assert!(text.contains("Connection: close"), "got: {text}");
        assert!(text.ends_with("{}"));
    }

    #[test]
    fn serialized_header_casing_is_canonical_and_lookup_is_insensitive() {
        let mut r = Response::json("{}");
        r.set_header("ETAG", "\"3\"");
        r.set_header("x-powered-by", "powerplay");
        // Lookups on the in-memory response are case-insensitive.
        assert_eq!(r.header("etag"), Some("\"3\""));
        assert_eq!(r.header("ETag"), Some("\"3\""));
        let mut out = Vec::new();
        r.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Etag: \"3\"\r\n"), "got: {text}");
        assert!(text.contains("X-Powered-By: powerplay\r\n"), "got: {text}");
        assert!(
            text.contains("Content-Type: application/json\r\n"),
            "got: {text}"
        );
        assert!(text.contains("Connection: keep-alive\r\n"), "got: {text}");
    }
}
