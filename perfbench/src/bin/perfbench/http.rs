//! A minimal HTTP/1.1 client and the JSON scanning the load generator
//! needs to check answers without building value trees. Reading each
//! batch answer into a `serde::Value` tree instead raised the load
//! generator's CPU share on `serve-batch` from about 0.24 to 0.35 and cut
//! the measured throughput by about a fifth (perfbench/README.md).
//!
//! The client keeps its connection open unless the response says
//! `Connection: close` (or carries no length), and counts every connection
//! it opens, so a server that adopts keep-alive shows its gain here
//! without a change to the benchmark.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Time a request may take before it counts as a transport failure.
const TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed response.
#[derive(Debug)]
pub struct Response {
    /// Status code, e.g. 200.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

/// One client: at most one open connection to the server.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// Connections opened so far.
    pub connections: u64,
}

impl Client {
    /// A client of the server at `addr`; connects on first use.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            connections: 0,
        }
    }

    /// Send one complete request (head and body in `raw`) and read the
    /// response. A reused connection that the server closed before sending
    /// any byte of the response is retried once on a fresh one; every other
    /// failure, a timeout included, is returned.
    pub fn send(&mut self, raw: &[u8]) -> std::io::Result<Response> {
        let reused = self.conn.is_some();
        match self.exchange(raw) {
            Err(Failed {
                unanswered: true, ..
            }) if reused => self.exchange(raw).map_err(|f| f.error),
            r => r.map_err(|f| f.error),
        }
    }

    fn exchange(&mut self, raw: &[u8]) -> Result<Response, Failed> {
        if self.conn.is_none() {
            let stream = connect(self.addr).map_err(|error| Failed {
                error,
                unanswered: false,
            })?;
            self.connections += 1;
            self.conn = Some(BufReader::with_capacity(64 * 1024, stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        // Whether the server closed the connection before the first byte of
        // the response arrived: then it never handled the request.
        let first = conn
            .get_mut()
            .write_all(raw)
            .and_then(|()| conn.fill_buf().map(|b| b.is_empty()));
        let result = match first {
            Ok(true) => Err(Failed {
                error: std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed before a response",
                ),
                unanswered: true,
            }),
            Ok(false) => read_response(conn).map_err(|error| Failed {
                error,
                unanswered: false,
            }),
            Err(error) => Err(Failed {
                unanswered: matches!(
                    error.kind(),
                    ErrorKind::BrokenPipe
                        | ErrorKind::ConnectionReset
                        | ErrorKind::ConnectionAborted
                ),
                error,
            }),
        };
        match result {
            Ok((resp, keep)) => {
                if !keep {
                    self.conn = None;
                }
                Ok(resp)
            }
            Err(f) => {
                self.conn = None;
                Err(f)
            }
        }
    }
}

/// A failed exchange.
struct Failed {
    error: std::io::Error,
    /// The connection closed before any byte of the response arrived.
    unanswered: bool,
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    Ok(stream)
}

/// Read one response; the flag says whether the connection may be reused.
fn read_response<R: BufRead>(r: &mut R) -> std::io::Result<(Response, bool)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before a response"));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length: Option<usize> = None;
    let mut keep = true;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the response head"));
        }
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some((name, value)) = l.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                keep = false;
            }
        }
    }
    let mut body = Vec::new();
    match length {
        Some(n) => {
            body.resize(n, 0);
            r.read_exact(&mut body)?;
        }
        None => {
            r.read_to_end(&mut body)?;
            keep = false;
        }
    }
    Ok((Response { status, body }, keep))
}

/// A `GET` request.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n").into_bytes()
}

/// A `POST` request with a JSON body.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body.as_bytes());
    raw
}

/// Cursor over a JSON text, enough to walk the daemon's answer documents.
struct Json<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Json<'a> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    /// A string's raw contents (escapes left in place).
    fn string(&mut self) -> Option<&'a str> {
        if !self.eat(b'"') {
            return None;
        }
        let start = self.i;
        loop {
            match self.b.get(self.i)? {
                b'\\' => self.i += 2,
                b'"' => break,
                _ => self.i += 1,
            }
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).ok()?;
        self.i += 1;
        Some(s)
    }

    /// A number, or `None` (consuming it) for `null`.
    fn number_or_null(&mut self) -> Option<Option<f64>> {
        self.ws();
        if self.b[self.i..].starts_with(b"null") {
            self.i += 4;
            return Some(None);
        }
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()?
            .parse()
            .ok()
            .map(Some)
    }

    /// Skip any value.
    fn skip(&mut self) -> Option<()> {
        self.ws();
        match *self.b.get(self.i)? {
            b'"' => self.string().map(|_| ()),
            b'{' | b'[' => {
                let close = if self.b[self.i] == b'{' { b'}' } else { b']' };
                self.i += 1;
                if self.eat(close) {
                    return Some(());
                }
                loop {
                    if close == b'}' {
                        self.string()?;
                        if !self.eat(b':') {
                            return None;
                        }
                    }
                    self.skip()?;
                    if self.eat(close) {
                        return Some(());
                    }
                    if !self.eat(b',') {
                        return None;
                    }
                }
            }
            _ => {
                while self
                    .b
                    .get(self.i)
                    .is_some_and(|c| !matches!(c, b',' | b'}' | b']'))
                {
                    self.i += 1;
                }
                Some(())
            }
        }
    }

    /// Walk an object, handing each key to `field`, which must consume the
    /// value (return `false` to have it skipped).
    fn object(&mut self, mut field: impl FnMut(&mut Self, &str) -> Option<bool>) -> Option<()> {
        if !self.eat(b'{') {
            return None;
        }
        if self.eat(b'}') {
            return Some(());
        }
        loop {
            let key = self.string()?;
            if !self.eat(b':') {
                return None;
            }
            if !field(self, key)? {
                self.skip()?;
            }
            if self.eat(b'}') {
                return Some(());
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }
}

/// `{"release": id, "sum": x}` → `(id, x)`.
pub fn single_answer(body: &[u8]) -> Option<(String, Option<f64>)> {
    let mut j = Json { b: body, i: 0 };
    let mut release = None;
    let mut sum = None;
    j.object(|j, key| match key {
        "release" => {
            release = Some(j.string()?.to_string());
            Some(true)
        }
        "sum" => {
            sum = j.number_or_null()?;
            Some(true)
        }
        _ => Some(false),
    })?;
    Some((release?, sum))
}

/// `{"release": id, "answers": [{"sum": x | null, "error": …}, …]}` →
/// `(id, sums)`, with `None` for an answer that carries no sum.
pub fn batch_answers(body: &[u8]) -> Option<(String, Vec<Option<f64>>)> {
    let mut j = Json { b: body, i: 0 };
    let mut release = None;
    let mut sums = Vec::new();
    j.object(|j, key| match key {
        "release" => {
            release = Some(j.string()?.to_string());
            Some(true)
        }
        "answers" => {
            if !j.eat(b'[') {
                return None;
            }
            if j.eat(b']') {
                return Some(true);
            }
            loop {
                let mut sum = None;
                j.object(|j, key| match key {
                    "sum" => {
                        sum = j.number_or_null()?;
                        Some(true)
                    }
                    _ => Some(false),
                })?;
                sums.push(sum);
                if j.eat(b']') {
                    return Some(true);
                }
                if !j.eat(b',') {
                    return None;
                }
            }
        }
        _ => Some(false),
    })?;
    Some((release?, sums))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_answer_documents() {
        let body = br#"{"release":"r-1","answers":[{"sum":1.5,"error":null},{"sum":null,"error":"invalid t range (0, 130) for ct=128, \"x\""},{"error":null,"sum":-2e3}]}"#;
        let (id, sums) = batch_answers(body).expect("well-formed");
        assert_eq!(id, "r-1");
        assert_eq!(sums, vec![Some(1.5), None, Some(-2000.0)]);
        let (id, sum) = single_answer(br#"{"release":"r","sum":7827.674939847046}"#).expect("ok");
        assert_eq!((id.as_str(), sum), ("r", Some(7827.674939847046)));
        assert!(batch_answers(br#"{"release":"r","answers":[{"sum":1}"#).is_none());
    }

    #[test]
    fn reads_responses_and_honours_connection_close() {
        let raw = b"HTTP/1.1 400 Bad Request\r\nContent-Length: 2\r\nConnection: close\r\n\r\nno";
        let (resp, keep) = read_response(&mut &raw[..]).expect("valid");
        assert_eq!(
            (resp.status, resp.body.as_slice(), keep),
            (400, &b"no"[..], false)
        );
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";
        let (_, keep) = read_response(&mut &raw[..]).expect("valid");
        assert!(keep);
    }

    /// Read one request head (the requests here carry no body).
    fn read_head(r: &mut impl BufRead) {
        let mut line = String::new();
        while r.read_line(&mut line).expect("request head") > 2 {
            line.clear();
        }
    }

    #[test]
    fn retries_only_requests_the_server_never_answered() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("address");
        // xtask-allow(XT07): a loopback server for the client under test
        let server = std::thread::spawn(move || {
            for partial in [false, true] {
                let (stream, _) = listener.accept().expect("accept");
                let mut r = BufReader::new(stream);
                read_head(&mut r);
                let ok = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
                r.get_mut().write_all(ok).expect("reply");
                read_head(&mut r);
                // The first connection closes without answering; the
                // second answers in part, then closes.
                if partial {
                    let cut = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\npar";
                    r.get_mut().write_all(cut).expect("partial reply");
                }
            }
        });
        let mut client = Client::new(addr);
        let req = get("/");
        assert_eq!(client.send(&req).expect("first").body, b"ok");
        // Closed unanswered on reuse: resent on a fresh connection.
        assert_eq!(client.send(&req).expect("resent").body, b"ok");
        assert_eq!(client.connections, 2);
        // Closed after part of a response: an error, not resent.
        assert!(client.send(&req).is_err());
        assert_eq!(client.connections, 2);
        server.join().expect("server thread");
    }
}
