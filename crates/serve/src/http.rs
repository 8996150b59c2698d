//! Minimal HTTP/1.1 framing over blocking streams.
//!
//! Just enough of RFC 7230 for the telemetry plane: one request per
//! connection (every response carries `Connection: close`), bounded head
//! and body sizes, `Content-Length` bodies only (no chunked encoding).
//! Query strings are split on `&`/`=` without percent-decoding — every
//! parameter this server accepts is a plain integer.

use std::io::{self, BufRead, Read, Write};

use relpat_obs::Json;

/// Upper bound on the request line + headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on an accepted request body.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed inbound request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path component only, query string stripped.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First value for a query parameter, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8, if valid.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// Peer closed the connection before sending a request line.
    Eof,
    /// Transport failure (including read timeout).
    Io(io::Error),
    /// Malformed request; the message is safe to echo in a 400 body.
    Bad(&'static str),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads one line of the request head, never more than one byte past the
/// remaining [`MAX_HEAD_BYTES`] budget: a peer that never sends a newline
/// cannot make the server buffer an unbounded line.
fn read_head_line(reader: &mut impl BufRead, head_bytes: &mut usize) -> Result<String, ReadError> {
    let budget = (MAX_HEAD_BYTES - *head_bytes + 1) as u64;
    let mut line = String::new();
    reader.take(budget).read_line(&mut line)?;
    *head_bytes += line.len();
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(ReadError::Bad("request head too large"));
    }
    Ok(line)
}

/// Reads one request from the stream.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, ReadError> {
    let mut head_bytes = 0usize;
    let line = read_head_line(reader, &mut head_bytes)?;
    if line.is_empty() {
        return Err(ReadError::Eof);
    }
    let request_line = line.trim_end_matches(['\r', '\n']);
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().ok_or(ReadError::Bad("empty request line"))?.to_string();
    let target = parts.next().ok_or(ReadError::Bad("missing request target"))?;
    let version = parts.next().ok_or(ReadError::Bad("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad("unsupported HTTP version"));
    }

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();

    let mut content_length = 0usize;
    loop {
        let header = read_head_line(reader, &mut head_bytes)?;
        if header.is_empty() {
            return Err(ReadError::Bad("truncated headers"));
        }
        let header = header.trim_end_matches(['\r', '\n']);
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ReadError::Bad("invalid Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::Bad("request body too large"));
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path: path.to_string(), query, body })
}

/// An outbound response; always closes the connection.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    pub fn json(status: u16, body: &Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.to_string().into_bytes(),
        }
    }

    /// Standard error shape: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, &Json::obj().set("error", message))
    }

    /// Prometheus text exposition format v0.0.4.
    pub fn prometheus(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    pub fn write_to(&self, writer: &mut impl Write) -> io::Result<()> {
        write!(
            writer,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len(),
        )?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_request_line_query_and_body() {
        let req = parse(
            "POST /answer?slow=3&verbose HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/answer");
        assert_eq!(req.query_param("slow"), Some("3"));
        assert_eq!(req.query_param("verbose"), Some(""));
        assert_eq!(req.body_str(), Some("body"));
    }

    #[test]
    fn eof_before_request_line_is_distinguished_from_bad_requests() {
        assert!(matches!(parse(""), Err(ReadError::Eof)));
        assert!(matches!(parse("GET\r\n\r\n"), Err(ReadError::Bad(_))));
        assert!(matches!(parse("GET / SPDY/3\r\n\r\n"), Err(ReadError::Bad(_))));
    }

    #[test]
    fn oversized_content_length_is_rejected() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert!(matches!(parse(raw), Err(ReadError::Bad(_))));
    }

    /// A request line of `remaining` bytes that never ends in a newline,
    /// counting how many bytes the parser pulls from it.
    struct EndlessLine {
        remaining: usize,
        consumed: usize,
    }

    impl Read for EndlessLine {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.remaining);
            buf[..n].fill(b'a');
            self.remaining -= n;
            self.consumed += n;
            Ok(n)
        }
    }

    #[test]
    fn unterminated_head_is_cut_off_at_the_limit() {
        let mut line = EndlessLine { remaining: 64 << 20, consumed: 0 };
        let mut reader = BufReader::new(&mut line);
        let fill = reader.capacity();
        let result = read_request(&mut reader);
        assert!(matches!(result, Err(ReadError::Bad("request head too large"))), "{result:?}");
        drop(reader);
        assert!(
            line.consumed <= MAX_HEAD_BYTES + fill,
            "read {} bytes of an unterminated request line",
            line.consumed
        );
    }

    #[test]
    fn head_within_the_limit_still_parses() {
        let header = format!("X-Pad: {}\r\n", "p".repeat(MAX_HEAD_BYTES / 2));
        let raw = format!("GET /health HTTP/1.1\r\n{header}\r\n");
        assert_eq!(parse(&raw).unwrap().path, "/health");
        let raw = format!("GET /health HTTP/1.1\r\n{header}{header}\r\n");
        assert!(matches!(parse(&raw), Err(ReadError::Bad("request head too large"))));
    }

    #[test]
    fn response_wire_format_has_length_and_close() {
        let mut out = Vec::new();
        Response::text(200, "ok\n").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));
    }
}
