//! The `POST /query` stage histograms (`serve.stage.{parse,eval,encode}_us`)
//! partition the route's time: per request, their sum never exceeds the
//! `serve.query_latency_us` observation that brackets them. This binary
//! holds a single test so no other request moves the histograms between
//! its snapshots.

use stpt_serve::http::handle_bytes;
use stpt_serve::{ReleaseCache, ReleaseSpec, ServerState};

/// `(count, sum)` of each named histogram, in order; `(0, 0.0)` while a
/// histogram has never been observed.
fn totals(names: &[&str]) -> Vec<(u64, f64)> {
    let snap = stpt_obs::metrics::snapshot();
    names
        .iter()
        .map(|n| {
            snap.histograms
                .iter()
                .find(|h| h.name == *n)
                .map_or((0, 0.0), |h| (h.count, h.sum))
        })
        .collect()
}

#[test]
fn stage_times_sum_to_at_most_the_route_latency() {
    stpt_obs::set_live_enabled(true);
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
    let state = ServerState::new(cache);
    let names = [
        "serve.query_latency_us",
        "serve.stage.parse_us",
        "serve.stage.eval_us",
        "serve.stage.encode_us",
    ];
    let q = r#"{"x":[0,2],"y":[0,2],"t":[0,4]}"#;
    let oob = r#"{"x":[0,2],"y":[0,2],"t":[0,99]}"#;
    let batches = [
        format!(r#"{{"queries":[{}]}}"#, vec![q; 1024].join(",")),
        format!(r#"{{"queries":[{q},{oob}]}}"#),
        r#"{"queries":[]}"#.to_string(),
        // Rejected while parsing: only the parse stage runs.
        r#"{"queries":[{"x":[1,0],"y":[0,2],"t":[0,4]}]}"#.to_string(),
    ];
    for body in &batches {
        let raw = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let before = totals(&names);
        let resp = handle_bytes(&state, raw.as_bytes()).expect("response");
        let after = totals(&names);
        let delta: Vec<(u64, f64)> = before
            .iter()
            .zip(&after)
            .map(|(b, a)| (a.0 - b.0, a.1 - b.1))
            .collect();
        let parsed = resp.is_ok();
        let want_counts = if parsed { [1, 1, 1, 1] } else { [1, 1, 0, 0] };
        assert_eq!(
            delta.iter().map(|d| d.0).collect::<Vec<_>>(),
            want_counts,
            "{}",
            resp.status
        );
        let stages: f64 = delta[1..].iter().map(|d| d.1).sum();
        assert!(
            stages <= delta[0].1,
            "stages {stages} us exceed route latency {} us",
            delta[0].1
        );
    }
}
