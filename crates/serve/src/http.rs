//! The daemon's HTTP request handler: a pure function from parsed
//! request to response, so the hostile-input surface is testable (and
//! fuzzable) without sockets.

use crate::codec::{decode_batch, encode_answers, push_json_string};
use crate::engine::answer_batch;
use crate::release::ReleaseCache;
use serde::Serialize;
use std::sync::atomic::AtomicBool;
use std::time::Instant;
use stpt_obs::httpd::{self, Request, RequestError};
use stpt_queries::RangeQuery;

/// Telemetry: HTTP requests handled, by any route.
static REQUESTS_TOTAL: stpt_obs::Counter = stpt_obs::Counter::new("serve.requests_total");
/// Telemetry: requests answered with a 4xx/5xx status.
static ERRORS_TOTAL: stpt_obs::Counter = stpt_obs::Counter::new("serve.errors_total");
/// Telemetry: wall-clock latency of query-route requests, microseconds.
static QUERY_LATENCY_US: stpt_obs::Histogram = stpt_obs::Histogram::new("serve.query_latency_us");
/// Telemetry: `POST /query` body decoding, microseconds.
static STAGE_PARSE_US: stpt_obs::Histogram = stpt_obs::Histogram::new("serve.stage.parse_us");
/// Telemetry: `POST /query` release lookup and batch evaluation,
/// microseconds.
static STAGE_EVAL_US: stpt_obs::Histogram = stpt_obs::Histogram::new("serve.stage.eval_us");
/// Telemetry: `POST /query` response encoding, microseconds.
static STAGE_ENCODE_US: stpt_obs::Histogram = stpt_obs::Histogram::new("serve.stage.encode_us");

/// Shared state of one daemon: the release cache plus the shutdown
/// flag acceptor loops watch.
#[derive(Debug)]
pub struct ServerState {
    /// Releases sanitized at startup, keyed by release id.
    pub cache: ReleaseCache,
    /// Set by `POST /shutdown`; acceptor loops exit when it goes high.
    pub shutdown: AtomicBool,
}

impl ServerState {
    /// State over a prebuilt cache.
    pub fn new(cache: ReleaseCache) -> Self {
        ServerState {
            cache,
            shutdown: AtomicBool::new(false),
        }
    }
}

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
    fn json(status: &'static str, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    fn error(status: &'static str, msg: &str) -> Self {
        ERRORS_TOTAL.add(1);
        Response::json(status, format!("{{\"error\":{}}}", json_string(msg)))
    }

    /// Whether the status is a success.
    pub fn is_ok(&self) -> bool {
        self.status.starts_with('2')
    }
}

/// JSON-escape a string (the error path cannot assume serde round-trips).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_string(&mut out, s);
    out
}

#[derive(Debug, Serialize)]
struct ReleaseSummary {
    id: String,
    dataset: String,
    shape: (usize, usize, usize),
    eps_total: f64,
    epsilon_spent_sanitize: f64,
    audit_consistent: bool,
    queries_answered: u64,
    proof: crate::ledger::ServingProof,
}

/// Route one parsed request. Every failure mode is a status code; this
/// function must never panic on any input (pinned by the crate's fuzz
/// suite).
pub fn handle_request(state: &ServerState, req: &Request) -> Response {
    REQUESTS_TOTAL.add(1);
    let (path, query_string) = match req.path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (req.path.as_str(), None),
    };
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => Response {
            status: "200 OK",
            content_type: "text/plain; charset=utf-8",
            body: "ok\n".to_string(),
        },
        ("GET", "/metrics") | ("GET", "/") => Response {
            status: "200 OK",
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: stpt_obs::prometheus::render(),
        },
        ("GET", "/releases") => releases_route(state),
        ("GET", "/query") => {
            let start = Instant::now();
            let resp = single_query_route(state, query_string.unwrap_or(""));
            QUERY_LATENCY_US.observe(micros_since(start));
            resp
        }
        ("POST", "/query") => {
            let start = Instant::now();
            let resp = batch_query_route(state, &req.body);
            QUERY_LATENCY_US.observe(micros_since(start));
            resp
        }
        ("POST", "/shutdown") => {
            state
                .shutdown
                .store(true, std::sync::atomic::Ordering::SeqCst);
            Response {
                status: "200 OK",
                content_type: "text/plain; charset=utf-8",
                body: "shutting down\n".to_string(),
            }
        }
        _ => Response::error(
            "404 Not Found",
            "routes: GET /healthz /metrics /releases /query, POST /query /shutdown",
        ),
    }
}

/// `GET /releases`: summaries with a fresh ε-freeness proof per release.
/// A failed proof is a 500 — the daemon refuses to pretend.
fn releases_route(state: &ServerState) -> Response {
    let mut summaries = Vec::new();
    for release in state.cache.iter() {
        let proof = match release.prove() {
            Ok(p) => p,
            Err(e) => {
                return Response::error(
                    "500 Internal Server Error",
                    &format!("release '{}' failed its ε-freeness proof: {e}", release.id),
                )
            }
        };
        summaries.push(ReleaseSummary {
            id: release.id.clone(),
            dataset: release.spec.dataset.clone(),
            shape: release.shape,
            eps_total: release.spec.eps_total(),
            epsilon_spent_sanitize: release.epsilon_spent_sanitize,
            audit_consistent: release.audit.consistent,
            queries_answered: release
                .queries_answered
                .load(std::sync::atomic::Ordering::Relaxed),
            proof,
        });
    }
    match serde_json::to_string(&summaries) {
        Ok(body) => Response::json("200 OK", body),
        Err(e) => Response::error("500 Internal Server Error", &format!("serialize: {e}")),
    }
}

/// `GET /query?release=<id>&x0=&x1=&y0=&y1=&t0=&t1=`: one range query.
fn single_query_route(state: &ServerState, query_string: &str) -> Response {
    let mut release_id: Option<String> = None;
    let mut coords: [Option<usize>; 6] = [None; 6];
    const KEYS: [&str; 6] = ["x0", "x1", "y0", "y1", "t0", "t1"];
    for pair in query_string.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = match pair.split_once('=') {
            Some(kv) => kv,
            None => return Response::error("400 Bad Request", &format!("bad parameter '{pair}'")),
        };
        if key == "release" {
            release_id = Some(value.to_string());
            continue;
        }
        let Some(slot) = KEYS.iter().position(|k| *k == key) else {
            return Response::error("400 Bad Request", &format!("unknown parameter '{key}'"));
        };
        match value.parse::<usize>() {
            Ok(v) => coords[slot] = Some(v),
            Err(_) => {
                return Response::error(
                    "400 Bad Request",
                    &format!("parameter '{key}' is not a non-negative integer: '{value}'"),
                )
            }
        }
    }
    let mut resolved = [0usize; 6];
    for (i, slot) in coords.iter().enumerate() {
        match slot {
            Some(v) => resolved[i] = *v,
            None => {
                return Response::error(
                    "400 Bad Request",
                    &format!("missing parameter '{}'", KEYS[i]),
                )
            }
        }
    }
    let Some(release) = state.cache.get(release_id.as_deref()) else {
        return Response::error(
            "404 Not Found",
            &format!("unknown release '{}'", release_id.unwrap_or_default()),
        );
    };
    // Full validation against the release's shape: empty, inverted and
    // out-of-bounds ranges are all 400s with the axis spelled out.
    let query = match RangeQuery::try_new(
        (resolved[0], resolved[1]),
        (resolved[2], resolved[3]),
        (resolved[4], resolved[5]),
        release.shape,
    ) {
        Ok(q) => q,
        Err(e) => return Response::error("400 Bad Request", &e.to_string()),
    };
    let answers = answer_batch(&release.prefix, std::slice::from_ref(&query));
    release.note_queries(1);
    match answers.first() {
        Some(Ok(sum)) => Response::json(
            "200 OK",
            format!("{{\"release\":{},\"sum\":{sum}}}", json_string(&release.id)),
        ),
        Some(Err(e)) => Response::error("400 Bad Request", &e.to_string()),
        None => Response::error("500 Internal Server Error", "empty batch result"),
    }
}

/// `POST /query` with a JSON body: a batch of queries against one
/// release, decoded and encoded by [`crate::codec`]. An out-of-bounds
/// range comes back as a per-answer error and the rest of the batch is
/// still answered; an empty or inverted range, or any body outside the
/// codec's grammar, rejects the whole batch with `400`. Each stage is
/// timed into its own `serve.stage.*_us` histogram.
fn batch_query_route(state: &ServerState, body: &[u8]) -> Response {
    let start = Instant::now();
    let batch = decode_batch(body);
    STAGE_PARSE_US.observe(micros_since(start));
    let batch = match batch {
        Ok(b) => b,
        Err(e) => return Response::error("400 Bad Request", &format!("bad batch request: {e}")),
    };
    let start = Instant::now();
    let Some(release) = state.cache.get(batch.release) else {
        return Response::error(
            "404 Not Found",
            &format!("unknown release '{}'", batch.release.unwrap_or_default()),
        );
    };
    let answers = answer_batch(&release.prefix, &batch.queries);
    release.note_queries(batch.queries.len() as u64);
    STAGE_EVAL_US.observe(micros_since(start));
    let start = Instant::now();
    let body = encode_answers(&release.id, &answers);
    STAGE_ENCODE_US.observe(micros_since(start));
    match body {
        Ok(body) => Response::json("200 OK", body),
        Err(e) => Response::error("500 Internal Server Error", &format!("serialize: {e}")),
    }
}

fn micros_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Feed raw bytes through the capped reader and the router, exactly as a
/// connection handler would. Returns `None` when the bytes do not even
/// form a request the daemon would answer (socket-level `Io`). This is
/// the fuzz suite's entry point.
pub fn handle_bytes(state: &ServerState, raw: &[u8]) -> Option<Response> {
    let mut reader = raw;
    match httpd::read_request(
        &mut reader,
        httpd::DEFAULT_HEAD_CAP,
        httpd::DEFAULT_BODY_CAP,
    ) {
        Ok(req) => Some(handle_request(state, &req)),
        Err(RequestError::TooLarge) => Some(Response::error(
            "413 Payload Too Large",
            "request exceeds byte cap",
        )),
        Err(RequestError::Malformed) => {
            Some(Response::error("400 Bad Request", "malformed request"))
        }
        Err(RequestError::Io) => None,
    }
}
