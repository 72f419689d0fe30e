//! Fuzz-style property tests over the daemon's full wire path: arbitrary
//! byte soup, HTTP-shaped soup, and structurally hostile queries must all
//! come back as error responses (or silence for socket-level garbage) —
//! **never** a panic. The `proptest!` macro runs each property over many
//! deterministic cases; any panic inside `handle_bytes` fails the test.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use stpt_serve::http::handle_bytes;
use stpt_serve::{ReleaseCache, ReleaseSpec, ServerState};

/// One shared smoke release for every property in this binary —
/// sanitization is the expensive part and the state is read-only here.
fn state() -> &'static Arc<ServerState> {
    static STATE: OnceLock<Arc<ServerState>> = OnceLock::new();
    STATE.get_or_init(|| {
        let mut cache = ReleaseCache::new();
        cache
            .insert(&ReleaseSpec {
                grid: 8,
                hours: 16,
                seed: 7,
                smoke: true,
                ..ReleaseSpec::default()
            })
            .expect("smoke release builds");
        Arc::new(ServerState::new(cache))
    })
}

/// Statuses the daemon is allowed to answer with.
const KNOWN_STATUSES: [&str; 5] = [
    "200 OK",
    "400 Bad Request",
    "404 Not Found",
    "413 Payload Too Large",
    "500 Internal Server Error",
];

proptest! {
    #[test]
    fn byte_soup_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let resp = handle_bytes(state(), &raw);
        if let Some(r) = resp {
            prop_assert!(
                KNOWN_STATUSES.contains(&r.status),
                "unexpected status for byte soup: {}",
                r.status
            );
        }
    }

    #[test]
    fn http_shaped_soup_never_panics(
        method_pick in 0usize..5,
        path_bytes in proptest::collection::vec(any::<u8>(), 0..64),
        body in proptest::collection::vec(any::<u8>(), 0..512),
        lie_about_length in any::<bool>(),
        length_delta in 0usize..32,
    ) {
        let method = ["GET", "POST", "PUT", "", "G\u{7f}T"][method_pick];
        let path: String = path_bytes.iter().map(|b| char::from(*b)).collect();
        let claimed = if lie_about_length {
            body.len() + length_delta
        } else {
            body.len()
        };
        let mut raw = format!(
            "{method} /query{path} HTTP/1.1\r\nContent-Length: {claimed}\r\n\r\n"
        )
        .into_bytes();
        raw.extend_from_slice(&body);
        let resp = handle_bytes(state(), &raw);
        if let Some(r) = resp {
            prop_assert!(
                KNOWN_STATUSES.contains(&r.status),
                "unexpected status for http soup: {}",
                r.status
            );
        }
    }

    #[test]
    fn hostile_get_params_are_400s_not_panics(
        coords in proptest::collection::vec(any::<u64>(), 6),
        small in any::<bool>(),
    ) {
        // Half the cases sample small coordinates so inverted/empty/valid
        // ranges all actually occur; the other half throws full-range u64
        // (out-of-bounds by many orders of magnitude).
        let c: Vec<u64> = if small {
            coords.iter().map(|v| v % 20).collect()
        } else {
            coords
        };
        let raw = format!(
            "GET /query?x0={}&x1={}&y0={}&y1={}&t0={}&t1={} HTTP/1.1\r\n\r\n",
            c[0], c[1], c[2], c[3], c[4], c[5]
        );
        let resp = handle_bytes(state(), raw.as_bytes()).expect("well-formed HTTP gets a response");
        prop_assert!(
            resp.status == "200 OK" || resp.status == "400 Bad Request",
            "hostile GET params must be answered 200 or 400, got {}",
            resp.status
        );
        if resp.status == "200 OK" {
            prop_assert!(resp.body.contains("\"sum\""));
        }
    }

    #[test]
    fn hostile_batch_bodies_are_rejected_not_panicked(
        coords in proptest::collection::vec(any::<u64>(), 6),
        small in any::<bool>(),
    ) {
        let c: Vec<u64> = if small {
            coords.iter().map(|v| v % 20).collect()
        } else {
            coords
        };
        let body = format!(
            "{{\"queries\":[{{\"x\":[{},{}],\"y\":[{},{}],\"t\":[{},{}]}}]}}",
            c[0], c[1], c[2], c[3], c[4], c[5]
        );
        let raw = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let resp = handle_bytes(state(), raw.as_bytes()).expect("well-formed HTTP gets a response");
        prop_assert!(
            resp.status == "200 OK" || resp.status == "400 Bad Request",
            "hostile batch must be answered 200 or 400, got {}",
            resp.status
        );
        // Inverted/empty ranges die at deserialization (400); in-structure
        // but out-of-bounds ranges come back as per-answer errors
        // (`sum` null), valid ones as sums (`error` null).
        if resp.status == "200 OK" {
            let oob = c[1] > 8 || c[3] > 8 || c[5] > 16;
            if oob {
                prop_assert!(resp.body.contains("\"sum\":null"), "{}", resp.body);
            } else {
                prop_assert!(resp.body.contains("\"error\":null"), "{}", resp.body);
            }
        }
    }
}

/// `POST /query` through the full bytes-in path with `body` as the payload.
fn post_batch(body: &str) -> stpt_serve::Response {
    let raw = format!(
        "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    handle_bytes(state(), raw.as_bytes()).expect("well-formed HTTP gets a response")
}

/// The batch error rule, pinned: a range that is out of bounds for the
/// release fails only its own answer, while an empty or inverted range
/// (or any body not in the object wire format) rejects the whole batch.
#[test]
fn batch_errors_are_per_answer_only_for_out_of_bounds_ranges() {
    let valid = r#"{"x":[0,2],"y":[0,2],"t":[0,4]}"#;

    let resp = post_batch(&format!(
        r#"{{"queries":[{valid},{{"x":[0,2],"y":[0,2],"t":[0,99]}}]}}"#
    ));
    assert_eq!(resp.status, "200 OK", "{}", resp.body);
    let doc: serde::Value = serde_json::from_str(&resp.body).expect("response is JSON");
    let fields = doc.as_object().expect("response is an object");
    let answers = serde::get_field(fields, "answers")
        .expect("answers field")
        .as_array()
        .expect("answers array");
    assert_eq!(answers.len(), 2);
    let field = |i: usize, name: &str| {
        let answer = answers[i].as_object().expect("answer is an object");
        serde::get_field(answer, name)
            .expect("field present")
            .clone()
    };
    assert!(field(0, "sum").as_f64().is_some(), "{}", resp.body);
    assert!(field(0, "error").as_str().is_none(), "{}", resp.body);
    assert!(field(1, "sum").as_f64().is_none(), "{}", resp.body);
    let error = field(1, "error");
    let error = error.as_str().expect("second answer carries an error");
    assert!(error.contains("invalid t range"), "{error}");

    let resp = post_batch(&format!(
        r#"{{"queries":[{valid},{{"x":[5,1],"y":[0,2],"t":[0,4]}}]}}"#
    ));
    assert_eq!(resp.status, "400 Bad Request", "{}", resp.body);
    assert!(resp.body.contains("invalid x range"), "{}", resp.body);

    let resp = post_batch(r#"{"queries":[[0,2,0,2,0,4]]}"#);
    assert_eq!(resp.status, "400 Bad Request", "{}", resp.body);
}

/// A ~20 KB body of nested arrays, far under the body cap, is a plain
/// `400`: the batch grammar never recurses, so no body can exhaust the
/// acceptor thread's stack, and the daemon keeps answering.
#[test]
fn deeply_nested_batch_is_a_400_and_the_daemon_stays_up() {
    for body in [
        format!(r#"{{"queries":{}"#, "[".repeat(10_000)),
        format!(r#"{{"queries":[{}"#, "{\"x\":".repeat(5_000)),
        format!(r#"{{"release":{}}}"#, "[".repeat(10_000)),
    ] {
        let resp = post_batch(&body);
        assert_eq!(resp.status, "400 Bad Request", "{}", resp.body);
    }
    let health = handle_bytes(state(), b"GET /healthz HTTP/1.1\r\n\r\n").expect("healthz");
    assert_eq!(health.status, "200 OK");
}
