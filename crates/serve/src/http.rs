//! A minimal HTTP/1.1 layer over [`std::net::TcpStream`]: enough to
//! parse one request, write one response, and close — the daemon speaks
//! `Connection: close` exclusively, so there is no keep-alive state
//! machine, no chunked encoding, and no dependency outside `std`.
//!
//! A request costs a handful of syscalls: the head is read in chunks
//! (usually one read brings the head and the whole body), and the
//! response goes out as one write of head and body together.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Largest accepted request head (request line + headers), in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body, in bytes (manifests are small; 10 MB
/// is orders of magnitude above any real catalog source).
pub const MAX_BODY_BYTES: usize = 10 * 1024 * 1024;

/// One parsed request: method, path, and the (possibly empty) body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, …).
    pub method: String,
    /// The request target, query string included, verbatim.
    pub path: String,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

/// One response ready to serialize: status code plus a typed body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The response body.
    pub body: String,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Bytes asked of the socket per `read` while looking for the end of
/// the head. A typical request (head plus manifest body) arrives whole
/// in the first read.
const READ_CHUNK: usize = 8 * 1024;

/// Reads and parses one request from the stream. The head is read in
/// chunks until CRLFCRLF; whatever the last chunk carried past the head
/// is the start of the body, and bytes beyond `Content-Length` are
/// ignored. Enforces [`MAX_HEAD_BYTES`] / [`MAX_BODY_BYTES`]; anything
/// malformed (no request line, oversized head, bad `Content-Length`) is
/// an `InvalidData` error the caller turns into a `400`.
///
/// # Errors
///
/// I/O errors from the socket, or `InvalidData` for malformed requests.
pub fn read_request(stream: &mut impl Read) -> io::Result<Request> {
    let mut buf: Vec<u8> = Vec::with_capacity(READ_CHUNK);
    let head_end = loop {
        // Resume the terminator scan three bytes back, in case a CRLFCRLF
        // straddles two reads.
        let scan_from = buf.len().saturating_sub(3);
        let filled = buf.len();
        buf.resize(filled + READ_CHUNK, 0);
        let n = stream.read(&mut buf[filled..])?;
        buf.truncate(filled + n);
        if n == 0 {
            return Err(bad("connection closed mid-request"));
        }
        if let Some(at) = buf[scan_from..].windows(4).position(|w| w == b"\r\n\r\n") {
            let end = scan_from + at + 4;
            if end > MAX_HEAD_BYTES {
                return Err(bad("request head too large"));
            }
            break end;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(bad("request head too large"));
        }
    };
    let head =
        std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| bad("missing request line"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("missing method"))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| bad("missing request target"))?
        .to_string();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad("request body too large"));
    }
    let mut body = buf.split_off(head_end);
    if body.len() >= content_length {
        body.truncate(content_length);
    } else {
        let have = body.len();
        body.resize(content_length, 0);
        stream.read_exact(&mut body[have..])?;
    }
    Ok(Request { method, path, body })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Serializes a response (with `Content-Length` and
/// `Connection: close`) onto the stream in one write and flushes it.
///
/// # Errors
///
/// I/O errors from the socket.
pub fn write_response(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
    );
    out.push_str(&response.body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// A one-shot HTTP client: connects, sends `method path` with the given
/// body, and returns `(status, body)`. Shared by the `rehearsal
/// coverage --addr` gate and the integration tests, so the daemon is
/// exercised by the same client code the CLI ships.
///
/// # Errors
///
/// Connection or protocol errors.
pub fn http_request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let raw = String::from_utf8(raw).map_err(|_| bad("response is not UTF-8"))?;
    let (head, response_body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("malformed response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    Ok((status, response_body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_response_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/v1/echo");
            assert_eq!(req.body, b"{\"x\":1}");
            write_response(
                &mut stream,
                &Response::json(200, "{\"ok\":true}".to_string()),
            )
            .unwrap();
        });
        let (status, body) = http_request(&addr, "POST", "/v1/echo", "{\"x\":1}").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        server.join().unwrap();
    }

    /// A reader that hands out the given writes one at a time: each
    /// `read` returns at most what is left of the current write, the
    /// way a socket returns whatever segments have arrived.
    struct Writes(std::collections::VecDeque<Vec<u8>>);

    impl Writes {
        fn new(writes: &[&[u8]]) -> Writes {
            Writes(writes.iter().map(|w| w.to_vec()).collect())
        }
    }

    impl Read for Writes {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(front) = self.0.front_mut() else {
                return Ok(0);
            };
            let n = front.len().min(buf.len());
            buf[..n].copy_from_slice(&front[..n]);
            front.drain(..n);
            if front.is_empty() {
                self.0.pop_front();
            }
            Ok(n)
        }
    }

    const HEAD: &[u8] = b"POST /v1/check HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n";

    #[test]
    fn head_and_body_in_one_write() {
        let one = [HEAD, b"{\"x\":1}"].concat();
        let req = read_request(&mut Writes::new(&[&one])).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/check");
        assert_eq!(req.body, b"{\"x\":1}");
    }

    #[test]
    fn head_dribbled_one_byte_per_write() {
        let mut writes: Vec<&[u8]> = HEAD.chunks(1).collect();
        writes.push(b"{\"x\":1}");
        let req = read_request(&mut Writes::new(&writes)).unwrap();
        assert_eq!(req.path, "/v1/check");
        assert_eq!(req.body, b"{\"x\":1}");
    }

    #[test]
    fn body_in_later_writes_than_the_head() {
        let writes: [&[u8]; 3] = [HEAD, b"{\"x\"", b":1}"];
        let req = read_request(&mut Writes::new(&writes)).unwrap();
        assert_eq!(req.body, b"{\"x\":1}");
        // Part of the body riding with the head, the rest later.
        let first = [HEAD, b"{\"x"].concat();
        let writes: [&[u8]; 2] = [&first, b"\":1}"];
        let req = read_request(&mut Writes::new(&writes)).unwrap();
        assert_eq!(req.body, b"{\"x\":1}");
    }

    #[test]
    fn head_over_the_cap_is_invalid_data() {
        let mut head = b"GET /v1/healthz HTTP/1.1\r\nX-Pad: ".to_vec();
        head.resize(MAX_HEAD_BYTES, b'a');
        head.extend_from_slice(b"\r\n\r\n");
        let err = read_request(&mut Writes::new(&[&head])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Also when the head never ends.
        let endless = vec![b'a'; 2 * MAX_HEAD_BYTES];
        let err = read_request(&mut Writes::new(&[&endless])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A head exactly at the cap is accepted.
        let mut exact = b"GET /v1/healthz HTTP/1.1\r\nX-Pad: ".to_vec();
        exact.resize(MAX_HEAD_BYTES - 4, b'a');
        exact.extend_from_slice(b"\r\n\r\n");
        let req = read_request(&mut Writes::new(&[&exact])).unwrap();
        assert_eq!(req.path, "/v1/healthz");
    }

    #[test]
    fn bytes_past_content_length_are_ignored() {
        let one = [HEAD, b"{\"x\":1}GARBAGE"].concat();
        let req = read_request(&mut Writes::new(&[&one])).unwrap();
        assert_eq!(req.body, b"{\"x\":1}");
        let writes: [&[u8]; 2] = [HEAD, b"{\"x\":1}\r\n\r\nGET / HTTP/1.1"];
        let req = read_request(&mut Writes::new(&writes)).unwrap();
        assert_eq!(req.body, b"{\"x\":1}");
    }

    #[test]
    fn connection_closed_mid_body_is_an_error() {
        let writes: [&[u8]; 2] = [HEAD, b"{\"x"];
        assert!(read_request(&mut Writes::new(&writes)).is_err());
    }

    #[test]
    fn oversized_content_length_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_request(&mut stream)
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /v1/check HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n")
            .unwrap();
        let err = server.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
