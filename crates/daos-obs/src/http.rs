//! Just enough HTTP/1.1 on `std::net` for the observability plane: a
//! request parser (method, path, keep-alive negotiation), response
//! writers with `Content-Length` or chunked framing, and two blocking
//! clients — one-shot [`http_get`] (used by `daos top ADDR`, the
//! integration tests, and the `obs-get` smoke helper) and the
//! persistent [`HttpClient`] that keeps one connection open across
//! requests (used by the `obs_bench` load generator and the keep-alive
//! tests) — no external dependencies anywhere.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest line (request line, status line, header, chunk size;
/// terminator included) either side of the plane will buffer.
pub const MAX_LINE: usize = 8 * 1024;

/// Most header lines in one request or response head.
pub const MAX_HEADERS: usize = 64;

/// Largest `Content-Length` body, or single chunk, the clients accept.
pub const MAX_BODY: usize = 64 << 20;

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// `read_line` that refuses to buffer more than [`MAX_LINE`] bytes: a
/// peer that never sends the newline gets [`io::ErrorKind::InvalidData`]
/// instead of an ever-growing `String`.
fn read_line(reader: &mut impl BufRead, line: &mut String) -> io::Result<usize> {
    let n = reader.take(MAX_LINE as u64 + 1).read_line(line)?;
    if n > MAX_LINE {
        return Err(invalid(format!("line longer than {MAX_LINE} bytes")));
    }
    Ok(n)
}

/// A parsed request head. Only the headers the server acts on are
/// interpreted (`Connection`); the rest are read and discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// HTTP method (`GET`, `HEAD`, ...).
    pub method: String,
    /// Request target path including any query string.
    pub path: String,
    /// Whether the client asked to keep the connection open: HTTP/1.1
    /// defaults to `true` unless `Connection: close`, HTTP/1.0 to
    /// `false` unless `Connection: keep-alive`.
    pub keep_alive: bool,
}

/// Read one request head from `reader`. Returns `None` on a clean EOF
/// before any bytes (client closed an idle connection). Malformed
/// request lines — and a request line or header over [`MAX_LINE`]
/// bytes, or more than [`MAX_HEADERS`] headers — surface as
/// [`io::ErrorKind::InvalidData`] so the server can answer
/// `400 Bad Request` and close instead of buffering without limit.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    let mut line = String::new();
    if read_line(reader, &mut line)? == 0 {
        return Ok(None);
    }
    let mut words = line.split_whitespace();
    let (method, path, version) = match (words.next(), words.next(), words.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => (m, p, v),
        _ => return Err(invalid(format!("malformed request line: {line:?}"))),
    };
    // Keep-alive is the HTTP/1.1 default; 1.0 must opt in.
    let mut keep_alive = version != "HTTP/1.0";
    // `Connection` is the only header the server interprets.
    for_each_header(reader, |header| {
        let lower = header.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("connection:") {
            keep_alive = match v.trim() {
                "close" => false,
                "keep-alive" => true,
                _ => keep_alive,
            };
        }
    })?;
    Ok(Some(Request { method: method.to_string(), path: path.to_string(), keep_alive }))
}

/// Hand `each` the header lines up to the blank line (or EOF) that ends
/// a head; more than [`MAX_HEADERS`] of them is
/// [`io::ErrorKind::InvalidData`].
fn for_each_header(reader: &mut impl BufRead, mut each: impl FnMut(&str)) -> io::Result<()> {
    for _ in 0..=MAX_HEADERS {
        let mut header = String::new();
        if read_line(reader, &mut header)? == 0 || header == "\r\n" || header == "\n" {
            return Ok(());
        }
        each(&header);
    }
    Err(invalid(format!("more than {MAX_HEADERS} header lines")))
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// How a response should be framed and delivered.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResponseOpts {
    /// Announce `Connection: keep-alive` instead of `close`.
    pub keep_alive: bool,
    /// Write the head only (a `HEAD` answer): full headers, including
    /// the `Content-Length` the body *would* have, but no body bytes.
    pub head_only: bool,
    /// Emit a `Retry-After: N` header (the 503 backpressure answer).
    pub retry_after: Option<u32>,
}

/// Write a complete response with a `Content-Length` body under `opts`.
/// Returns the number of body bytes actually written (0 for
/// `head_only`), which the server's response-size telemetry records.
pub fn write_response_with(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    opts: ResponseOpts,
) -> io::Result<usize> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        status,
        status_text(status),
        content_type,
        body.len(),
    );
    if let Some(secs) = opts.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str(if opts.keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    // One write for head + body: two writes on a non-NODELAY socket can
    // hit the Nagle/delayed-ACK stall and cost tens of ms per response.
    let written = if opts.head_only {
        0
    } else {
        head.push_str(body);
        body.len()
    };
    stream.write_all(head.as_bytes())?;
    stream.flush()?;
    Ok(written)
}

/// Start a chunked response; follow with [`write_chunk`] calls and a
/// final [`finish_chunked`]. Chunked streams always announce
/// `Connection: close` — the `/events` tail ends with the connection.
pub fn start_chunked(stream: &mut impl Write, content_type: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()
}

/// Write one non-empty chunk (empty input is skipped: a zero-length
/// chunk would terminate the stream).
pub fn write_chunk(stream: &mut impl Write, data: &str) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    write!(stream, "{:x}\r\n{}\r\n", data.len(), data)?;
    stream.flush()
}

/// Terminate a chunked response.
pub fn finish_chunked(stream: &mut impl Write) -> io::Result<()> {
    write!(stream, "0\r\n\r\n")?;
    stream.flush()
}

/// A fetched response: status code, headers, and decoded body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response headers, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Body with `Content-Length` or chunked framing removed.
    pub body: String,
}

impl Response {
    /// The first header named `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Read one response (status line, headers, framed body) from `reader`.
/// With `head_only` the body is not read even if `Content-Length` says
/// one would follow (the `HEAD` client side). For chunked bodies a
/// read timeout mid-stream keeps what already arrived (the `/events`
/// client behaviour). The peer's bytes are held to the same
/// [`MAX_LINE`] / [`MAX_HEADERS`] bounds as a request, and to
/// [`MAX_BODY`] per announced length.
fn read_response(reader: &mut impl BufRead, head_only: bool) -> io::Result<Response> {
    let mut status_line = String::new();
    read_line(reader, &mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line: {status_line:?}")))?;

    let mut headers: Vec<(String, String)> = Vec::new();
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    for_each_header(reader, |header| {
        if let Some((name, value)) = header.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().ok();
            } else if name == "transfer-encoding" {
                chunked = value == "chunked";
            }
            headers.push((name, value));
        }
    })?;

    let mut body = String::new();
    if head_only {
        // A HEAD answer carries headers only; nothing more to read.
    } else if chunked {
        // Tolerate timeouts mid-stream: keep what we have.
        if let Err(e) = read_chunked(reader, &mut body) {
            if !matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
                return Err(e);
            }
        }
    } else if let Some(len) = content_length {
        body = String::from_utf8_lossy(&read_body(reader, len)?).into_owned();
    } else {
        reader.take(MAX_BODY as u64).read_to_string(&mut body)?;
    }
    Ok(Response { status, headers, body })
}

/// Read exactly `len` body bytes, where `len` is what the peer
/// announced: over [`MAX_BODY`] is refused, and the buffer grows only as
/// bytes arrive, so a length with nothing behind it allocates nothing.
fn read_body(reader: &mut impl BufRead, len: usize) -> io::Result<Vec<u8>> {
    if len > MAX_BODY {
        return Err(invalid(format!("body of {len} bytes exceeds {MAX_BODY}")));
    }
    let mut buf = Vec::new();
    reader.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(buf)
}

/// Blocking `GET {path}` against `addr` with per-operation `timeout`,
/// one connection per call (`Connection: close`). Decodes both
/// `Content-Length` and chunked bodies; for chunked streams that
/// outlive the timeout (e.g. `/events` on a live run), returns whatever
/// arrived before the socket timed out.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<Response> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    write!(writer, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    writer.flush()?;
    read_response(&mut BufReader::new(stream), false)
}

/// A persistent keep-alive connection issuing sequential requests: the
/// client side of the server's worker-pool keep-alive path, used by the
/// `obs_bench` load generator and the storm tests. Every request
/// announces `Connection: keep-alive`; the connection stays usable as
/// long as the server honours it.
pub struct HttpClient {
    addr: SocketAddr,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connect to `addr` with `timeout` applying to the connect and to
    /// every subsequent read/write.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<HttpClient> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(HttpClient { addr, writer, reader: BufReader::new(stream) })
    }

    /// Issue `{method} {path}` on the persistent connection and read
    /// the full response. `HEAD` responses are read as headers-only.
    pub fn request(&mut self, method: &str, path: &str) -> io::Result<Response> {
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n\r\n",
            self.addr
        )?;
        self.writer.flush()?;
        read_response(&mut self.reader, method == "HEAD")
    }

    /// Issue `GET {path}` on the persistent connection.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request("GET", path)
    }
}

fn read_chunked(reader: &mut impl BufRead, body: &mut String) -> io::Result<()> {
    loop {
        let mut size_line = String::new();
        if read_line(reader, &mut size_line)? == 0 {
            return Ok(());
        }
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| invalid(format!("bad chunk size: {size_line:?}")))?;
        if size == 0 {
            let mut trailer = String::new();
            let _ = read_line(reader, &mut trailer);
            return Ok(());
        }
        body.push_str(&String::from_utf8_lossy(&read_body(reader, size)?));
        let mut crlf = String::new();
        read_line(reader, &mut crlf)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_util::prop::{any_bool, fuzz_bytes};
    use daos_util::{prop_assert, proptest};
    use std::io::Cursor;

    #[test]
    fn oversized_heads_are_invalid_data_after_a_bounded_read() {
        // No newline, ever: the parser gives up one byte past the cap.
        let mut endless = Cursor::new(vec![b'A'; 1 << 20]);
        let err = read_request(&mut endless).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(endless.position(), MAX_LINE as u64 + 1);
        // A header line is held to the same cap.
        let long_header = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "y".repeat(MAX_LINE));
        let err = read_request(&mut Cursor::new(long_header)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // MAX_HEADERS headers parse; one more does not — and the parser
        // stops there instead of draining the rest.
        let head = |n: usize| format!("GET / HTTP/1.1\r\n{}\r\n", "X: y\r\n".repeat(n));
        assert!(read_request(&mut Cursor::new(head(MAX_HEADERS))).unwrap().is_some());
        let mut flood = Cursor::new(head(100_000));
        let err = read_request(&mut flood).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(flood.position(), 16 + 6 * (MAX_HEADERS as u64 + 1));
    }

    #[test]
    fn announced_lengths_allocate_only_what_arrives() {
        let resp = |head: &str| read_response(&mut Cursor::new(head.as_bytes()), false);
        let huge = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\nabc", usize::MAX);
        assert_eq!(resp(&huge).unwrap_err().kind(), io::ErrorKind::InvalidData);
        let short = format!("HTTP/1.1 200 OK\r\nContent-Length: {MAX_BODY}\r\n\r\nabc");
        assert_eq!(resp(&short).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        let chunk = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffff\r\nabc";
        assert_eq!(resp(chunk).unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(read_body(&mut Cursor::new(b"abcd"), 3).unwrap(), b"abc");
    }

    const REQUEST_TOKENS: &[&str] = &[
        "GET ", "HEAD ", "/query?metric=", " HTTP/1.1", " HTTP/1.0", "HTTP/1.", "\r\n", "\n",
        "Connection:", " close", " keep-alive", "X: y\r\n", " ", "%7B", "\r\n\r\n",
    ];

    const RESPONSE_TOKENS: &[&str] = &[
        "HTTP/1.1 200 OK\r\n", "HTTP/1.1 ", "503 ", "\r\n", "\n", "Content-Length: ",
        "Transfer-Encoding: chunked\r\n", "3", "0\r\n\r\n", "5\r\nhello\r\n", "a\r\n",
        "67108864", "18446744073709551615", "ffffffffffffffff\r\n", "X: y\r\n", ":",
    ];

    // Whatever bytes arrive, the two head parsers return `Ok` or a typed
    // error — never panic — and what they hand back is bounded by the
    // caps and by the input's own length.
    proptest! {
        cases = 512;

        fn read_request_survives_arbitrary_bytes(raw in fuzz_bytes(REQUEST_TOKENS)) {
            let mut cursor = Cursor::new(&raw);
            match read_request(&mut cursor) {
                Ok(Some(req)) => prop_assert!(req.method.len() + req.path.len() <= raw.len()),
                Ok(None) => prop_assert!(raw.is_empty()),
                Err(e) => prop_assert!(e.kind() == io::ErrorKind::InvalidData, "{e}"),
            }
            prop_assert!(cursor.position() <= ((MAX_HEADERS + 2) * (MAX_LINE + 1)) as u64);
        }

        fn read_response_survives_arbitrary_bytes(
            raw in fuzz_bytes(RESPONSE_TOKENS),
            head_only in any_bool(),
        ) {
            match read_response(&mut Cursor::new(&raw), head_only) {
                Ok(resp) => {
                    prop_assert!(resp.headers.len() <= MAX_HEADERS);
                    let held: usize = resp.headers.iter().map(|(k, v)| k.len() + v.len()).sum();
                    // Lossy decoding grows an invalid byte to a 3-byte U+FFFD.
                    prop_assert!(held + resp.body.len() <= 3 * raw.len());
                }
                Err(e) => prop_assert!(
                    matches!(e.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
                    "{e}"
                ),
            }
        }
    }

    #[test]
    fn request_line_parses_and_headers_are_drained() {
        let raw = "GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n";
        let req = read_request(&mut Cursor::new(raw)).unwrap().unwrap();
        assert_eq!(
            req,
            Request { method: "GET".into(), path: "/metrics".into(), keep_alive: true }
        );
        assert!(read_request(&mut Cursor::new("")).unwrap().is_none(), "EOF is a clean close");
        let err = read_request(&mut Cursor::new("nonsense\r\n\r\n")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "malformed lines are 400 material");
    }

    #[test]
    fn keep_alive_negotiation_follows_version_and_connection() {
        let parse = |raw: &str| read_request(&mut Cursor::new(raw)).unwrap().unwrap();
        assert!(parse("GET / HTTP/1.1\r\n\r\n").keep_alive, "1.1 defaults to keep-alive");
        assert!(!parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive);
        assert!(!parse("GET / HTTP/1.0\r\n\r\n").keep_alive, "1.0 defaults to close");
        assert!(parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive);
        assert!(parse("HEAD / HTTP/1.1\r\nConnection: Upgrade\r\n\r\n").keep_alive);
    }

    #[test]
    fn response_opts_control_framing() {
        let mut buf = Vec::new();
        let n = write_response_with(
            &mut buf,
            503,
            "text/plain",
            "busy\n",
            ResponseOpts { keep_alive: false, head_only: false, retry_after: Some(1) },
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(n, 5);
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("busy\n"));

        let mut buf = Vec::new();
        let n = write_response_with(
            &mut buf,
            200,
            "text/plain",
            "would-be body",
            ResponseOpts { keep_alive: true, head_only: true, retry_after: None },
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(n, 0, "HEAD writes no body bytes");
        assert!(text.contains("Content-Length: 13\r\n"), "HEAD still announces the length");
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n"), "no body follows the head");
    }

    #[test]
    fn responses_roundtrip_through_the_client_decoder() {
        // Serve a fixed-length and a chunked body over a real socket pair
        // so http_get exercises its full path.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let req = read_request(&mut BufReader::new(s.try_clone().unwrap()))
                    .unwrap()
                    .unwrap();
                if req.path == "/plain" {
                    let opts = ResponseOpts::default();
                    write_response_with(&mut s, 200, "text/plain", "hello daos", opts).unwrap();
                } else {
                    start_chunked(&mut s, "application/jsonl").unwrap();
                    write_chunk(&mut s, "{\"a\":1}\n").unwrap();
                    write_chunk(&mut s, "").unwrap();
                    write_chunk(&mut s, "{\"b\":2}\n").unwrap();
                    finish_chunked(&mut s).unwrap();
                }
            }
        });
        let t = Duration::from_secs(5);
        let plain = http_get(addr, "/plain", t).unwrap();
        assert_eq!((plain.status, plain.body.as_str()), (200, "hello daos"));
        assert_eq!(plain.header("content-length"), Some("10"));
        let chunked = http_get(addr, "/chunked", t).unwrap();
        assert_eq!(chunked.body, "{\"a\":1}\n{\"b\":2}\n");
        server.join().unwrap();
    }

    #[test]
    fn persistent_client_reuses_one_connection() {
        // A tiny keep-alive server: one accepted connection, many
        // requests answered on it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut served = 0u32;
            while let Some(req) = read_request(&mut reader).unwrap() {
                served += 1;
                let body = format!("#{served} {} {}", req.method, req.path);
                write_response_with(
                    &mut writer,
                    200,
                    "text/plain",
                    &body,
                    ResponseOpts {
                        keep_alive: req.keep_alive,
                        head_only: req.method == "HEAD",
                        retry_after: None,
                    },
                )
                .unwrap();
                if !req.keep_alive {
                    break;
                }
            }
            served
        });
        let mut client = HttpClient::connect(addr, Duration::from_secs(5)).unwrap();
        for i in 1..=5 {
            let resp = client.get("/x").unwrap();
            assert_eq!((resp.status, resp.body.as_str()), (200, format!("#{i} GET /x").as_str()));
        }
        let head = client.request("HEAD", "/x").unwrap();
        assert_eq!(head.status, 200);
        assert!(head.body.is_empty(), "HEAD bodies are empty");
        assert_eq!(head.header("content-length"), Some("10"), "#6 HEAD /x is 10 bytes");
        drop(client);
        assert_eq!(server.join().unwrap(), 6, "one connection served every request");
    }
}
