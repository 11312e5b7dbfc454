//! A minimal blocking HTTP/1.1 client for the load generator: framed
//! responses by `Content-Length`, and Server-Sent Event frames off an
//! open stream. Kept apart from the program's own client so the
//! benchmark measures the server, not a shared code path.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status, `ETag` and body.
pub struct Reply {
    pub status: u16,
    pub etag: Option<String>,
    pub body: Vec<u8>,
}

/// One Server-Sent Event: its `id`, `event` name and `data` text.
pub struct Event {
    pub id: Option<u64>,
    pub name: String,
    pub data: String,
}

/// A connection with its read buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A missing answer or event fails the operation after this long.
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            start: 0,
        })
    }

    /// A second handle on the same socket, for a sender thread while
    /// this one reads.
    pub fn writer(&self) -> io::Result<TcpStream> {
        self.stream.try_clone()
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 32 * 1024 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let len = self.buf.len();
        self.buf.resize(len + 64 * 1024, 0);
        let n = self.stream.read(&mut self.buf[len..]);
        self.buf.truncate(len + *n.as_ref().unwrap_or(&0));
        match n? {
            0 => Err(io::ErrorKind::UnexpectedEof.into()),
            _ => Ok(()),
        }
    }

    /// Reads the next complete response off the connection.
    pub fn read_reply(&mut self) -> io::Result<Reply> {
        let head_end = loop {
            if let Some(i) = find(self.pending(), b"\r\n\r\n") {
                break i;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.pending()[..head_end])
            .map_err(|_| invalid("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut length = 0usize;
        let mut etag = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| invalid("bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case("etag") {
                etag = Some(value.to_owned());
            }
        }
        let body_start = head_end + 4;
        while self.pending().len() < body_start + length {
            self.fill()?;
        }
        let body = self.pending()[body_start..body_start + length].to_vec();
        self.start += body_start + length;
        Ok(Reply { status, etag, body })
    }

    /// Reads the response head of an event stream and leaves the
    /// connection positioned at its first frame.
    pub fn read_stream_head(&mut self) -> io::Result<u16> {
        let head_end = loop {
            if let Some(i) = find(self.pending(), b"\r\n\r\n") {
                break i;
            }
            self.fill()?;
        };
        let status = std::str::from_utf8(&self.pending()[..head_end])
            .ok()
            .and_then(|h| h.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        self.start += head_end + 4;
        Ok(status)
    }

    /// Reads the next event frame, skipping comments (`:hb`) and
    /// field-less frames such as `retry:`.
    pub fn read_event(&mut self) -> io::Result<Event> {
        loop {
            let end = loop {
                if let Some(i) = find(self.pending(), b"\n\n") {
                    break i;
                }
                self.fill()?;
            };
            let text = std::str::from_utf8(&self.pending()[..end])
                .map_err(|_| invalid("event frame is not UTF-8"))?;
            let mut event = Event {
                id: None,
                name: String::new(),
                data: String::new(),
            };
            for line in text.split('\n') {
                if let Some(v) = line.strip_prefix("id: ") {
                    event.id = v.parse().ok();
                } else if let Some(v) = line.strip_prefix("event: ") {
                    event.name = v.to_owned();
                } else if let Some(v) = line.strip_prefix("data: ") {
                    if !event.data.is_empty() {
                        event.data.push('\n');
                    }
                    event.data.push_str(v);
                }
            }
            self.start += end + 2;
            if !event.name.is_empty() {
                return Ok(event);
            }
        }
    }
}

/// Every `"total_w":<number>` token in `text`, in order, exactly as the
/// server wrote it (the shortest round-trip form).
pub fn total_w_tokens(text: &str) -> Vec<&str> {
    text.match_indices("\"total_w\":")
        .map(|(i, key)| {
            let rest = &text[i + key.len()..];
            let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
            &rest[..end]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn reads_pipelined_replies_and_event_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.write_all(
                b"HTTP/1.1 200 OK\r\nEtag: \"3\"\r\nContent-Length: 16\r\n\r\n{\"total_w\":1.5}\n\
                  HTTP/1.1 304 Not Modified\r\nContent-Length: 0\r\n\r\n\
                  HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\r\n\
                  retry: 2000\n\n:hb\n\nid: 4\nevent: revision\ndata: {\"a\":1}\n\n",
            )
            .unwrap();
        });
        let mut conn = Conn::open(addr).unwrap();
        let a = conn.read_reply().unwrap();
        assert_eq!((a.status, a.etag.as_deref()), (200, Some("\"3\"")));
        assert_eq!(
            total_w_tokens(std::str::from_utf8(&a.body).unwrap()),
            ["1.5"]
        );
        let b = conn.read_reply().unwrap();
        assert_eq!((b.status, b.body.len()), (304, 0));
        assert_eq!(conn.read_stream_head().unwrap(), 200);
        let e = conn.read_event().unwrap();
        assert_eq!(
            (e.id, e.name.as_str(), e.data.as_str()),
            (Some(4), "revision", "{\"a\":1}")
        );
        server.join().unwrap();
    }
}
