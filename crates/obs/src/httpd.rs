//! Minimal std-only HTTP/1.1 serving: one capped request reader and one
//! accept loop.
//!
//! The original scrape handler drained headers with an uncapped
//! `read_line` loop: a slow-drip client that keeps sending header bytes
//! resets the socket read timeout on every line and grows the buffer
//! without bound. [`read_request`] bounds the entire request head (request
//! line + headers) with [`std::io::Read::take`], so even a single
//! newline-free line cannot allocate past the cap, and bounds the body via
//! `Content-Length` against a separate cap.
//!
//! [`serve`] is the workspace's one TCP accept loop, generic over the
//! [`Service`] that answers each request. It runs the Prometheus scrape
//! listener ([`crate::prometheus::Scrape`], body cap 0) and the
//! `stpt-serve` query daemon (body cap [`DEFAULT_BODY_CAP`]), which faces
//! genuinely untrusted clients.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default cap on the request head (request line + headers), in bytes.
pub const DEFAULT_HEAD_CAP: usize = 8 * 1024;

/// Default cap on the request body, in bytes. Generous enough for large
/// JSON query batches, small enough to bound per-connection memory.
pub const DEFAULT_BODY_CAP: usize = 1024 * 1024;

/// Bytes of unread request drained before answering an error, so the
/// kernel does not RST the response away on close.
const ERROR_DRAIN_CAP: usize = 256 * 1024;

/// A parsed HTTP request: just the pieces the workspace's endpoints need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, e.g. `GET`.
    pub method: String,
    /// Request target, e.g. `/metrics` or `/query?x0=0&x1=4`.
    pub path: String,
    /// Request body (empty unless `Content-Length` was present).
    pub body: Vec<u8>,
}

/// Why a request could not be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// The head or body exceeded its byte cap — answer `413`.
    TooLarge,
    /// Syntactically invalid request line or headers — answer `400`.
    Malformed,
    /// Socket error or EOF mid-request — nothing to answer.
    Io,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::TooLarge => write!(f, "request exceeds byte cap"),
            RequestError::Malformed => write!(f, "malformed request"),
            RequestError::Io => write!(f, "i/o error reading request"),
        }
    }
}

impl std::error::Error for RequestError {}

/// A rendered HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status line tail, e.g. `200 OK`.
    pub status: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// Whether the status is a success.
    pub fn is_ok(&self) -> bool {
        self.status.starts_with('2')
    }
}

/// Read one HTTP/1.1 request from `reader`, enforcing `head_cap` over the
/// request line + headers and `body_cap` over the body.
///
/// The head is read through [`Read::take`], so the total bytes consumed
/// before the blank line — including any pathological newline-free line —
/// can never exceed `head_cap`. The body is read only when a valid
/// `Content-Length` header is present (chunked encoding is not supported;
/// a `Transfer-Encoding` header is rejected as malformed).
pub fn read_request<R: BufRead>(
    reader: &mut R,
    head_cap: usize,
    body_cap: usize,
) -> Result<Request, RequestError> {
    let mut head = reader.take(head_cap as u64);
    let mut request_line = String::new();
    match head.read_line(&mut request_line) {
        Ok(0) => return Err(RequestError::Io),
        Ok(_) if !request_line.ends_with('\n') => {
            // `take` ran dry before the line terminator: capped, not EOF.
            return Err(if head.limit() == 0 {
                RequestError::TooLarge
            } else {
                RequestError::Io
            });
        }
        Ok(_) => {}
        Err(_) => return Err(RequestError::Io),
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || path.is_empty() {
        return Err(RequestError::Malformed);
    }

    let mut content_length: usize = 0;
    let mut line = String::new();
    loop {
        line.clear();
        match head.read_line(&mut line) {
            Ok(0) => {
                // EOF before the blank line: a drained cap means the
                // client out-talked the budget, otherwise it hung up.
                return Err(if head.limit() == 0 {
                    RequestError::TooLarge
                } else {
                    RequestError::Io
                });
            }
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) if !line.ends_with('\n') => {
                return Err(if head.limit() == 0 {
                    RequestError::TooLarge
                } else {
                    RequestError::Io
                });
            }
            Ok(_) => {
                let Some((name, value)) = line.split_once(':') else {
                    return Err(RequestError::Malformed);
                };
                if name.trim().eq_ignore_ascii_case("transfer-encoding") {
                    return Err(RequestError::Malformed);
                }
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| RequestError::Malformed)?;
                }
            }
            Err(_) => return Err(RequestError::Io),
        }
    }

    if content_length > body_cap {
        return Err(RequestError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(|_| RequestError::Io)?;
    }
    Ok(Request { method, path, body })
}

/// Write a minimal connection-close HTTP/1.1 response.
pub fn write_response<W: Write>(w: &mut W, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = w.write_all(head.as_bytes());
    let _ = w.write_all(body.as_bytes());
    let _ = w.flush();
}

/// Discard up to `max` further bytes from `reader` through a fixed-size
/// scratch buffer. Closing a socket with unread receive-buffer data makes
/// the kernel RST the connection, destroying any error response already in
/// flight; a bounded drain lets a moderately over-cap client actually see
/// its `413`, while a flooding client costs at most `max` discarded bytes
/// and constant memory before the reset it deserves.
fn drain<R: Read>(reader: &mut R, max: usize) {
    let mut scratch = [0u8; 4096];
    let mut remaining = max;
    while remaining > 0 {
        let want = scratch.len().min(remaining);
        match reader.read(&mut scratch[..want]) {
            Ok(0) | Err(_) => return,
            Ok(n) => remaining -= n,
        }
    }
}

/// Map a [`RequestError`] to its response, if one should be written at
/// all (`Io` gets silence — the peer is gone or lying).
fn error_response<W: Write>(w: &mut W, e: RequestError) {
    match e {
        RequestError::TooLarge => write_response(
            w,
            "413 Payload Too Large",
            "text/plain; charset=utf-8",
            "request exceeds byte cap\n",
        ),
        RequestError::Malformed => write_response(
            w,
            "400 Bad Request",
            "text/plain; charset=utf-8",
            "malformed request\n",
        ),
        RequestError::Io => {}
    }
}

/// What one listener serves. Implementors answer requests; the two
/// provided hooks let a daemon stop its acceptors and count connections.
pub trait Service: Send + Sync + 'static {
    /// Per-connection socket timeout: a client that stalls longer than
    /// this mid-request is dropped rather than pinning an acceptor.
    const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

    /// Answer one parsed request. Must not panic on any input.
    fn respond(&self, req: &Request) -> Response;

    /// Whether the acceptors should exit, checked before and after every
    /// `accept`. The default never stops: the listener lives as long as
    /// the process.
    fn stopping(&self) -> bool {
        false
    }

    /// Called with `true` when a connection is accepted and with `false`
    /// once it has been answered or dropped.
    fn connection(&self, _open: bool) {}
}

/// A running listener: the bound address plus its acceptor threads.
/// Dropping it detaches the threads.
#[derive(Debug)]
pub struct Listener {
    /// Address the listener actually bound (port resolved if `:0`).
    pub addr: SocketAddr,
    acceptors: Vec<JoinHandle<()>>,
}

impl Listener {
    /// Block until every acceptor thread has exited, which happens once
    /// the service reports [`Service::stopping`] and one connection (a
    /// client's or [`wake`]'s) reaches an acceptor.
    pub fn join(self) -> Result<(), String> {
        for handle in self.acceptors {
            handle
                .join()
                .map_err(|_| "acceptor thread panicked".to_string())?;
        }
        Ok(())
    }
}

/// Bind `addr` and start `acceptors` threads (at least one) serving
/// `service`, each request body capped at `body_cap` bytes. Returns once
/// the listener is bound and every thread is running. Errors are
/// returned, never panicked: a busy port must not take down the caller.
///
/// Each acceptor owns a clone of the listener and handles accepted
/// connections inline (connection-close, one request each), so the
/// acceptor count is the listener's whole parallelism. Shutdown is
/// cooperative: once [`Service::stopping`] goes high, each acceptor that
/// observes it makes one wake connection on its way out, so the next
/// blocked `accept` returns and the cascade drains every thread.
pub fn serve<S: Service>(
    service: Arc<S>,
    addr: &str,
    acceptors: usize,
    body_cap: usize,
) -> Result<Listener, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let n = acceptors.max(1);
    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let listener = listener
            .try_clone()
            .map_err(|e| format!("clone listener: {e}"))?;
        let service = Arc::clone(&service);
        let handle = std::thread::Builder::new()
            .name(format!("stpt-http-{i}"))
            .spawn(move || acceptor_loop(&listener, &*service, bound, body_cap))
            .map_err(|e| format!("spawn acceptor: {e}"))?;
        handles.push(handle);
    }
    Ok(Listener {
        addr: bound,
        acceptors: handles,
    })
}

/// Connect-and-drop against a listener to unblock one `accept`.
pub fn wake(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
}

/// One acceptor: accept → handle → check for shutdown, until the service
/// stops. On exit, sends one wake connection so a sibling blocked in
/// `accept` also observes the stop.
fn acceptor_loop<S: Service>(
    listener: &TcpListener,
    service: &S,
    bound: SocketAddr,
    body_cap: usize,
) {
    while !service.stopping() {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => continue,
        };
        if service.stopping() {
            // Raised while we were blocked (possibly by the wake
            // connection we just accepted): exit without handling.
            break;
        }
        service.connection(true);
        handle_conn(service, stream, body_cap);
        service.connection(false);
    }
    wake(bound);
}

/// Handle one connection: capped read, respond. Every failure mode is a
/// status code or a dropped connection — never a panic.
fn handle_conn<S: Service>(service: &S, mut stream: TcpStream, body_cap: usize) {
    let _ = stream.set_read_timeout(Some(S::SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(S::SOCKET_TIMEOUT));
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader);
    match read_request(&mut reader, DEFAULT_HEAD_CAP, body_cap) {
        Ok(req) => {
            let resp = service.respond(&req);
            write_response(&mut stream, resp.status, resp.content_type, &resp.body);
        }
        Err(e) => {
            // Discard what the client is still sending (bounded) so the
            // error response is not destroyed by a kernel RST on close.
            drain(&mut reader, ERROR_DRAIN_CAP);
            error_response(&mut stream, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read(bytes: &[u8]) -> Result<Request, RequestError> {
        read_request(&mut BufReader::new(bytes), 1024, 4096)
    }

    #[test]
    fn parses_simple_get() {
        let r = read(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("valid GET");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/metrics");
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let r = read(b"POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").expect("valid POST");
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn caps_unbounded_header_stream() {
        // A slow-drip client sending headers forever: must error at the
        // cap, not accumulate.
        let mut soup = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..100_000 {
            soup.extend_from_slice(format!("X-Drip-{i}: padding\r\n").as_bytes());
        }
        assert_eq!(read(&soup), Err(RequestError::TooLarge));
    }

    #[test]
    fn caps_single_newline_free_line() {
        // One enormous line with no terminator: `read_line` alone would
        // buffer all of it; the take-cap stops at head_cap bytes.
        let mut soup = b"GET / HTTP/1.1\r\nX-Huge: ".to_vec();
        soup.extend(std::iter::repeat_n(b'a', 1 << 20));
        assert_eq!(read(&soup), Err(RequestError::TooLarge));
    }

    #[test]
    fn caps_oversized_body_before_allocating() {
        let r = read(b"POST /query HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n");
        assert_eq!(r, Err(RequestError::TooLarge));
    }

    #[test]
    fn rejects_malformed_requests() {
        assert_eq!(read(b"\r\n\r\n"), Err(RequestError::Malformed));
        assert_eq!(
            read(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(RequestError::Malformed)
        );
        assert_eq!(
            read(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(RequestError::Malformed)
        );
        assert_eq!(
            read(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(RequestError::Malformed)
        );
    }

    #[test]
    fn truncated_requests_are_io_errors() {
        assert_eq!(read(b""), Err(RequestError::Io));
        assert_eq!(
            read(b"GET / HTTP/1.1\r\nHost: x\r\n"),
            Err(RequestError::Io)
        );
        assert_eq!(
            read(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(RequestError::Io)
        );
    }
}
