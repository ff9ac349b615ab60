//! A hand-rolled HTTP/1.1 subset over `std::net` — just enough protocol for
//! the batch-service API, in the same spirit as the hand-rolled TOML parser
//! this workspace already carries (the build environment has no network
//! crates).
//!
//! Server side: [`read_request_deadline`] parses one request (request
//! line, headers, `Content-Length` body) off a stream; [`write_response`]
//! emits a complete `Connection: close` response. [`write_response_head`]
//! formats every response head, and lets a binary endpoint
//! (`/v1/cache/sync`) stream its body in pieces after it — a cache
//! snapshot can exceed the 4 MiB body cap.
//!
//! Client side: [`request`] performs one round trip and returns once the
//! response head is parsed. Its [`Response`] leaves the body on the wire:
//! [`Response::bytes`] and [`Response::text`] read it whole, capped at
//! 4 MiB, and [`Read`] streams it (a cache snapshot, verified record by
//! record as it arrives). [`Client`](crate::client::Client) is its one
//! caller, through its one retry loop. One request per
//! connection keeps the framing trivial — connection reuse buys nothing
//! for a localhost batch API.
//!
//! Limits are deliberate: 8 KiB per header line, 64 headers, 4 MiB bodies.
//! A malformed or oversized request produces a clean error (the server
//! turns it into `400`), never a panic or an unbounded allocation.
//!
//! Time is bounded too: [`read_request_deadline`] spends at most a fixed
//! **total** budget reading one request, counted across every byte — a
//! slow-loris client trickling one byte per socket-timeout window gets cut
//! off at the deadline, not kept alive indefinitely by per-read timeouts.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Maximum accepted header-line length.
const MAX_LINE: usize = 8 * 1024;
/// Maximum accepted header count.
const MAX_HEADERS: usize = 64;
/// Maximum accepted body size (a large TOML spec is a few KiB; reports a
/// few hundred KiB).
const MAX_BODY: usize = 4 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`).
    pub method: String,
    /// Request target (path only, query string stripped).
    pub path: String,
    /// The raw query string after `?` (empty when absent).
    pub query: String,
    /// Request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if the body is not UTF-8.
    pub fn body_utf8(&self) -> io::Result<&str> {
        std::str::from_utf8(&self.body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))
    }

    /// The value of query parameter `name` (`?name=value&...`), if present.
    /// No percent-decoding — the v1 API's parameter values are plain
    /// tokens (`mode=abort`).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one CRLF- (or LF-) terminated line, bounded by [`MAX_LINE`]
/// **consumed** bytes (not kept bytes — a stream of bare `\r`s must not
/// bypass the bound and pin the handler thread).
fn read_line(r: &mut impl BufRead) -> io::Result<String> {
    let mut line = Vec::new();
    let mut consumed = 0usize;
    loop {
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && !line.is_empty() => break,
            Err(e) => return Err(e),
        }
        consumed += 1;
        let [b] = byte;
        if b == b'\n' {
            break;
        }
        if b != b'\r' {
            line.push(b);
        }
        if consumed > MAX_LINE {
            return Err(bad("header line too long"));
        }
    }
    String::from_utf8(line).map_err(|_| bad("header line is not UTF-8"))
}

/// A [`Read`] adaptor enforcing one **total** deadline across every read:
/// before each syscall the socket timeout is clamped to the time left, so
/// the sum of waits — however the peer paces its bytes — cannot exceed the
/// budget.
struct DeadlineStream<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remaining = self
            .deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::TimedOut, "request read deadline exceeded")
            })?;
        self.stream.set_read_timeout(Some(remaining))?;
        (&mut self.stream).read(buf).map_err(|e| {
            // Unix surfaces a socket read timeout as EAGAIN (`WouldBlock`);
            // normalize so callers see one deadline error kind.
            if e.kind() == io::ErrorKind::WouldBlock {
                io::Error::new(io::ErrorKind::TimedOut, "request read deadline exceeded")
            } else {
                e
            }
        })
    }
}

/// Parses one request off `stream`, spending at most `deadline` in total —
/// the slow-loris defense: a client may not hold a handler thread longer
/// than the budget no matter how slowly it drips bytes.
///
/// # Errors
///
/// Returns `TimedOut` when the budget runs out, `InvalidData` for
/// malformed or over-limit requests, and propagates socket errors.
pub fn read_request_deadline(stream: &TcpStream, deadline: Duration) -> io::Result<Request> {
    let mut reader = BufReader::new(DeadlineStream {
        stream,
        deadline: Instant::now() + deadline,
    });
    parse_request(&mut reader)
}

fn parse_request(reader: &mut impl BufRead) -> io::Result<Request> {
    let request_line = read_line(reader)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| bad("request line lacks a target"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };
    if !path.starts_with('/') {
        return Err(bad("request target must be an absolute path"));
    }

    let mut content_length: Option<usize> = None;
    // One extra iteration beyond MAX_HEADERS for the terminating blank
    // line, so a request with exactly MAX_HEADERS headers is accepted.
    for _ in 0..=MAX_HEADERS {
        let line = read_line(reader)?;
        if line.is_empty() {
            let mut body = vec![0u8; content_length.unwrap_or(0)];
            reader.read_exact(&mut body)?;
            return Ok(Request {
                method,
                path,
                query,
                body,
            });
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad("malformed header"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            let len = parse_content_length(value, content_length)?;
            if len > MAX_BODY {
                return Err(bad("body too large"));
            }
            content_length = Some(len);
        }
    }
    Err(bad("too many headers"))
}

/// Parses one `Content-Length` value against any previously seen one.
/// Duplicate headers with the **same** value are tolerated (they are
/// unambiguous); *conflicting* duplicates are refused — the historical
/// last-one-wins behavior is exactly the parsing ambiguity behind request
/// smuggling, and a batch API has no reason to guess.
fn parse_content_length(value: &str, previous: Option<usize>) -> io::Result<usize> {
    let len: usize = value
        .trim()
        .parse()
        .map_err(|_| bad("bad Content-Length"))?;
    match previous {
        Some(prev) if prev != len => Err(bad(format!(
            "conflicting Content-Length headers ({prev} vs {len})"
        ))),
        _ => Ok(len),
    }
}

/// Human reason phrase for the status codes the service uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete `Connection: close` response, with `extra_headers`
/// (e.g. `Retry-After` on a `503`) after the standard ones.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    write_response_head(stream, status, content_type, extra_headers, body.len())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes only the response head (status line, `Content-Type`,
/// `Content-Length`, `Connection: close`, `extra_headers`, blank line) —
/// the one place a response head is formatted. A caller streaming its own
/// body must follow it with exactly `content_length` bytes. Header names
/// and values must be token-clean; the caller controls them.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_response_head(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    content_length: usize,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {content_length}\r\nConnection: close\r\n",
        status,
        reason(status),
        content_type,
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())
}

/// One HTTP response as the client sees it: the parsed head, with the body
/// still on the wire. Read the body whole with [`bytes`](Self::bytes) or
/// [`text`](Self::text), or stream it through [`Read`]; either way it ends
/// at the response's `Content-Length`, or at connection close without one.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// A parsed `Retry-After: <seconds>` header, if the server sent one
    /// (the saturation gate does, on `503`).
    pub retry_after: Option<u64>,
    body: io::Take<BufReader<TcpStream>>,
    /// Whether the head declared the body's length, so that the stream
    /// ending short of it is an error rather than the body's end.
    sized: bool,
}

impl Response {
    /// The whole body, at most 4 MiB: a peer cannot make the client
    /// buffer more, whatever length it declares.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a body past the cap and propagates socket
    /// errors.
    pub fn bytes(self) -> io::Result<Vec<u8>> {
        let mut body = Vec::new();
        self.take(MAX_BODY as u64 + 1).read_to_end(&mut body)?;
        if body.len() > MAX_BODY {
            return Err(bad("response body too large"));
        }
        Ok(body)
    }

    /// The whole body as UTF-8, under the [`bytes`](Self::bytes) cap.
    ///
    /// # Errors
    ///
    /// As [`bytes`](Self::bytes); `InvalidData` if the body is not UTF-8.
    pub fn text(self) -> io::Result<String> {
        String::from_utf8(self.bytes()?).map_err(|_| bad("response body is not UTF-8"))
    }
}

/// Streams the body — how a cache snapshot, which may exceed the cap of
/// [`Response::bytes`], reaches `ResultCache::ingest`.
impl Read for Response {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.body.read(buf)?;
        if n == 0 && !buf.is_empty() && self.sized && self.body.limit() > 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "response body ended before its Content-Length",
            ));
        }
        Ok(n)
    }
}

/// Performs one HTTP round trip against `addr`: sends the request and
/// returns once the response head is parsed, leaving the body for the
/// caller to read. `timeout` applies to the connect and to each socket
/// read and write separately — a batch API must never hang a client
/// forever on a wedged peer.
///
/// # Errors
///
/// Propagates connection and socket errors; returns `InvalidData` for a
/// malformed response head.
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<Response> {
    let mut stream = connect_timeout(addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: malec-serve\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    read_response_head(BufReader::new(stream))
}

/// Parses a response's status line and headers off `reader` into a
/// [`Response`] whose body starts at the first byte after the head.
fn read_response_head(mut reader: BufReader<TcpStream>) -> io::Result<Response> {
    let status_line = read_line(&mut reader)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line `{status_line}`")))?;
    let mut content_length: Option<usize> = None;
    let mut retry_after: Option<u64> = None;
    for _ in 0..=MAX_HEADERS {
        let line = read_line(&mut reader)?;
        if line.is_empty() {
            let limit = content_length.map_or(u64::MAX, |len| len as u64);
            return Ok(Response {
                status,
                retry_after,
                body: reader.take(limit),
                sized: content_length.is_some(),
            });
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(parse_content_length(value, content_length)?);
            } else if name.eq_ignore_ascii_case("retry-after") {
                // Only the delta-seconds form; an unparsable value (the
                // HTTP-date form) is ignored, not an error.
                retry_after = value.trim().parse().ok();
            }
        }
    }
    // Falling out of the loop would misparse leftover header bytes as the
    // body; refuse like the server side does.
    Err(bad("too many headers in response"))
}

/// `TcpStream::connect` with a timeout (std only offers it per
/// `SocketAddr`, so resolve first and try each address).
fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<TcpStream> {
    let mut last: Option<io::Error> = None;
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    for a in addrs {
        match TcpStream::connect_timeout(&a, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const TIMEOUT: Duration = Duration::from_secs(5);

    /// One-shot echo server: accepts a single connection, parses the
    /// request, responds with its own view of it.
    fn spawn_echo() -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            match read_request_deadline(&stream, Duration::from_secs(5)) {
                Ok(req) => {
                    let body = format!(
                        "{} {} {}",
                        req.method,
                        req.path,
                        String::from_utf8_lossy(&req.body)
                    );
                    write_response(&mut stream, 200, "text/plain", &[], body.as_bytes()).ok();
                }
                Err(e) => {
                    write_response(
                        &mut stream,
                        400,
                        "text/plain",
                        &[],
                        e.to_string().as_bytes(),
                    )
                    .ok();
                }
            }
        });
        addr
    }

    #[test]
    fn round_trip_with_body() {
        let addr = spawn_echo();
        let resp = request(addr, "POST", "/v1/jobs", b"[scenario]", TIMEOUT).expect("request");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text().expect("body"), "POST /v1/jobs [scenario]");
    }

    /// The hardened single-byte reader (destructured, no indexing) keeps
    /// the exact line semantics: CRLF and bare-LF both terminate, a lone
    /// CR is dropped, EOF mid-line yields what arrived.
    #[test]
    fn read_line_handles_terminators_and_eof() {
        let mut crlf = std::io::Cursor::new(b"abc\r\nrest".to_vec());
        assert_eq!(read_line(&mut crlf).expect("line"), "abc");
        let mut lf = std::io::Cursor::new(b"abc\nrest".to_vec());
        assert_eq!(read_line(&mut lf).expect("line"), "abc");
        let mut bare_cr = std::io::Cursor::new(b"a\rb\n".to_vec());
        assert_eq!(read_line(&mut bare_cr).expect("line"), "ab");
        let mut eof = std::io::Cursor::new(b"tail".to_vec());
        assert_eq!(read_line(&mut eof).expect("line"), "tail");
    }

    #[test]
    fn round_trip_without_body() {
        let addr = spawn_echo();
        let resp = request(addr, "GET", "/v1/healthz", b"", TIMEOUT).expect("request");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text().expect("body"), "GET /v1/healthz ");
    }

    #[test]
    fn query_strings_are_stripped() {
        let addr = spawn_echo();
        let resp = request(addr, "GET", "/v1/jobs/3?verbose=1", b"", TIMEOUT).expect("request");
        let body = resp.text().expect("body");
        assert!(body.starts_with("GET /v1/jobs/3 "), "{body}");
    }

    #[test]
    fn query_params_parse() {
        let req = Request {
            method: "POST".into(),
            path: "/v1/shutdown".into(),
            query: "mode=abort&x=1".into(),
            body: Vec::new(),
        };
        assert_eq!(req.query_param("mode"), Some("abort"));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("absent"), None);
        assert_eq!(req.query_param("abort"), None, "values are not keys");
    }

    #[test]
    fn slow_loris_is_cut_at_the_total_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let started = std::time::Instant::now();
            let err = read_request_deadline(&stream, Duration::from_millis(200))
                .expect_err("dripped request must time out");
            (err, started.elapsed())
        });
        // Drip a valid-looking request one byte at a time, each byte well
        // within any per-read socket timeout — only a *total* deadline
        // stops this.
        let mut stream = TcpStream::connect(addr).expect("connect");
        for b in b"GET /v1/healthz HTTP/1.1\r\n" {
            if stream.write_all(&[*b]).is_err() {
                break; // server hung up at the deadline
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let (err, elapsed) = server.join().expect("server thread");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(
            elapsed < Duration::from_secs(2),
            "deadline must fire promptly, took {elapsed:?}"
        );
    }

    #[test]
    fn extra_headers_reach_the_client() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            read_request_deadline(&stream, Duration::from_secs(5)).ok();
            write_response(
                &mut stream,
                503,
                "application/json",
                &[("Retry-After", "7")],
                b"{\"error\": \"saturated\"}",
            )
            .ok();
        });
        let resp = request(addr, "GET", "/", b"", TIMEOUT).expect("round trip");
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after, Some(7));
        assert!(resp.text().expect("body").contains("saturated"));
    }

    #[test]
    fn conflicting_duplicate_content_lengths_are_rejected() {
        // Server side: the request parser must refuse to pick a winner
        // between two disagreeing Content-Length headers.
        let addr = spawn_echo();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 11\r\n\r\nabcdefghijk",
            )
            .expect("write");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        assert!(out.contains("conflicting Content-Length"), "{out}");
    }

    #[test]
    fn identical_duplicate_content_lengths_are_tolerated() {
        // Duplicates that agree are unambiguous; the body parses normally.
        let addr = spawn_echo();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc")
            .expect("write");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        assert!(out.ends_with("POST /x abc"), "{out}");
    }

    #[test]
    fn client_rejects_conflicting_content_lengths_in_responses() {
        // A malicious or broken server must not trick the client into
        // reading the wrong byte count.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            read_request_deadline(&stream, Duration::from_secs(5)).ok();
            stream
                .write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello",
                )
                .ok();
        });
        let err = request(addr, "GET", "/", b"", TIMEOUT).expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("conflicting Content-Length"),
            "{err}"
        );
    }

    #[test]
    fn streamed_response_bodies_arrive_whole_and_bounded() {
        // The server writes the head, then the body in two chunks with a
        // pause between (the /v1/cache/sync shape); reading the client's
        // Response reassembles exactly Content-Length bytes — trailing
        // garbage past the declared length is never surfaced.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let payload: Vec<u8> = (0u16..600).map(|i| (i % 251) as u8).collect();
        let expected = payload.clone();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            read_request_deadline(&stream, Duration::from_secs(5)).ok();
            write_response_head(
                &mut stream,
                200,
                "application/octet-stream",
                &[],
                payload.len(),
            )
            .expect("head");
            let (a, b) = payload.split_at(payload.len() / 2);
            stream.write_all(a).expect("first half");
            stream.flush().ok();
            std::thread::sleep(Duration::from_millis(30));
            stream.write_all(b).expect("second half");
            stream.write_all(b"TRAILING-GARBAGE").ok();
        });
        let mut body = request(addr, "GET", "/v1/cache/sync", b"", TIMEOUT).expect("stream");
        assert_eq!((body.status, body.retry_after), (200, None));
        let mut got = Vec::new();
        body.read_to_end(&mut got).expect("read body");
        assert_eq!(got, expected, "chunked writes reassemble bit-identically");
    }

    #[test]
    fn a_body_cut_short_of_its_content_length_is_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            read_request_deadline(&stream, Duration::from_secs(5)).ok();
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}\n")
                .ok();
        });
        let resp = request(addr, "GET", "/", b"", TIMEOUT).expect("head arrives");
        let err = resp.text().expect_err("3 of 10 declared bytes");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn malformed_request_is_a_clean_400() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            match read_request_deadline(&stream, Duration::from_secs(5)) {
                Ok(_) => write_response(&mut stream, 200, "text/plain", &[], b"ok").ok(),
                Err(_) => write_response(&mut stream, 400, "text/plain", &[], b"bad").ok(),
            };
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"NOT-HTTP\r\n\r\n").expect("write");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    }
}
