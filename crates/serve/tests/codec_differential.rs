//! Differential tests of the `POST /query` codec against the serde-shim
//! path it replaced. The old request and response types live on here
//! only as the oracle: every batch the old path accepted with integer
//! coordinates must decode to the same queries, every response must be
//! byte-identical to the old encoder's, and the only new rejections are
//! the wire rules pinned at the end of this file.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use stpt_queries::RangeQuery;
use stpt_serve::codec::{decode_batch, encode_answers};
use stpt_serve::http::handle_bytes;
use stpt_serve::{answer_batch, ReleaseCache, ReleaseSpec, ServerState};

/// The old request type, decoded through the serde shim's value tree.
#[derive(Debug)]
struct OracleRequest {
    release: Option<String>,
    queries: Vec<RangeQuery>,
}

impl Deserialize for OracleRequest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::DeError::custom("expected object for batch request"))?;
        let release = match serde::get_field(fields, "release") {
            Ok(val) => Option::<String>::from_value(val)?,
            Err(_) => None,
        };
        let queries = Vec::<RangeQuery>::from_value(serde::get_field(fields, "queries")?)?;
        Ok(OracleRequest { release, queries })
    }
}

/// The old response types, encoded by `serde_json::to_string`.
#[derive(Debug, Serialize)]
struct OracleAnswer {
    sum: Option<f64>,
    error: Option<String>,
}

#[derive(Debug, Serialize)]
struct OracleResponse {
    release: String,
    answers: Vec<OracleAnswer>,
}

fn oracle_encode<E: std::fmt::Display>(
    release: &str,
    answers: &[Result<f64, E>],
) -> Option<String> {
    let response = OracleResponse {
        release: release.to_string(),
        answers: answers
            .iter()
            .map(|a| match a {
                Ok(sum) => OracleAnswer {
                    sum: Some(*sum),
                    error: None,
                },
                Err(e) => OracleAnswer {
                    sum: None,
                    error: Some(e.to_string()),
                },
            })
            .collect(),
    };
    serde_json::to_string(&response).ok()
}

/// A smoke release (8×8×16) for the full-route checks.
fn state() -> &'static ServerState {
    static STATE: OnceLock<ServerState> = OnceLock::new();
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
        ServerState::new(cache)
    })
}

fn route_batch(body: &str) -> stpt_serve::Response {
    let raw = format!(
        "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    handle_bytes(state(), raw.as_bytes()).expect("well-formed HTTP gets a response")
}

/// JSON whitespace, mostly none.
fn ws(rng: &mut StdRng) -> &'static str {
    const WS: [&str; 8] = ["", "", "", "", " ", "\n", "\t ", "\r\n  "];
    WS[rng.gen_range(0..WS.len())]
}

/// A coordinate: mostly inside the smoke release, sometimes far past it.
/// The old path parsed numbers as `f64`, so coordinates stay below `2^53`
/// where that is exact.
fn coord(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..10) {
        0 => rng.gen_range(0..1usize << 53),
        1 => rng.gen_range(0..100_000),
        _ => rng.gen_range(0..20),
    }
}

/// A valid (`lo < hi`) range, or with probability `p_bad` an empty or
/// inverted one.
fn range(rng: &mut StdRng, p_bad: f64) -> (usize, usize) {
    let (a, b) = (coord(rng), coord(rng));
    if rng.gen_bool(p_bad) {
        if rng.gen_bool(0.5) {
            (a, a)
        } else {
            (a.max(b) + 1, a.min(b))
        }
    } else {
        (a.min(b), a.max(b) + 1)
    }
}

/// One batch body with the given queries, in random key order with
/// random whitespace. `release` is `None` to omit the key.
fn body(rng: &mut StdRng, queries: &[RangeQuery], release: Option<Option<&str>>) -> String {
    let pair = |rng: &mut StdRng, (lo, hi): (usize, usize)| {
        format!("[{}{lo}{},{}{hi}{}]", ws(rng), ws(rng), ws(rng), ws(rng))
    };
    let mut qs = Vec::new();
    for q in queries {
        let mut fields = vec![('x', q.x), ('y', q.y), ('t', q.t)];
        // Fisher–Yates over the three keys.
        for i in (1..fields.len()).rev() {
            fields.swap(i, rng.gen_range(0..=i));
        }
        let fields: Vec<String> = fields
            .into_iter()
            .map(|(k, r)| format!("{}\"{k}\"{}:{}{}", ws(rng), ws(rng), ws(rng), pair(rng, r)))
            .collect();
        qs.push(format!("{{{}{}}}", fields.join(","), ws(rng)));
    }
    let sep = format!("{},{}", ws(rng), ws(rng));
    let queries = format!(
        "\"queries\"{}:{}[{}{}]",
        ws(rng),
        ws(rng),
        qs.join(&sep),
        ws(rng)
    );
    let members = match release {
        None => vec![queries],
        Some(r) => {
            let r = match r {
                Some(id) => format!("\"{id}\""),
                None => "null".to_string(),
            };
            let r = format!("\"release\"{}:{}{r}", ws(rng), ws(rng));
            if rng.gen_bool(0.5) {
                vec![r, queries]
            } else {
                vec![queries, r]
            }
        }
    };
    format!(
        "{}{{{}{}{}}}{}",
        ws(rng),
        ws(rng),
        members.join(&sep),
        ws(rng),
        ws(rng)
    )
}

proptest! {
    #[test]
    fn decoder_matches_the_serde_path(seed in any::<u64>(), p_bad in 0.0f64..0.1) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0..40);
        let ranges: Vec<[(usize, usize); 3]> = (0..n)
            .map(|_| [range(&mut rng, p_bad), range(&mut rng, p_bad), range(&mut rng, p_bad)])
            .collect();
        // Unchecked on purpose: the generator's bad ranges must reach
        // both decoders.
        let queries: Vec<RangeQuery> =
            ranges.iter().map(|&[x, y, t]| RangeQuery { x, y, t }).collect();
        let release = match rng.gen_range(0..3) {
            0 => None,
            1 => Some(None),
            _ => Some(Some("rel-1")),
        };
        let text = body(&mut rng, &queries, release);
        let old = serde_json::from_str::<OracleRequest>(&text);
        let new = decode_batch(text.as_bytes());
        let first_bad = ranges
            .iter()
            .find_map(|&[x, y, t]| RangeQuery::try_nonempty(x, y, t).err());
        match first_bad {
            None => {
                let old = old.map_err(|e| format!("oracle rejected {text:?}: {e}"))?;
                let new = new.map_err(|e| format!("codec rejected {text:?}: {e}"))?;
                prop_assert_eq!(&new.queries, &old.queries);
                prop_assert_eq!(new.release, old.release.as_deref());
            }
            Some(bad) => {
                // Both paths reject with the one shared message naming
                // the axis; so does the route, with a 400.
                let want = bad.to_string();
                let old = old.err().map(|e| e.to_string()).unwrap_or_default();
                let new = new.err().map(|e| e.to_string()).unwrap_or_default();
                prop_assert!(old.contains(&want), "oracle: {old:?}, want {want:?}");
                prop_assert!(new.contains(&want), "codec: {new:?}, want {want:?}");
                let resp = route_batch(&text);
                prop_assert_eq!(resp.status, "400 Bad Request");
                prop_assert!(resp.body.contains(&want), "{}", resp.body);
            }
        }
    }

    #[test]
    fn route_responses_match_the_old_encoder(seed in any::<u64>()) {
        // Full bytes-in path, against the old decode → evaluate → encode
        // pipeline rebuilt from the oracle types. Out-of-bounds ranges
        // exercise the per-answer error strings.
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0..64);
        let queries: Vec<RangeQuery> = (0..n)
            .map(|_| RangeQuery { x: range(&mut rng, 0.0), y: range(&mut rng, 0.0), t: range(&mut rng, 0.0) })
            .collect();
        let release = if rng.gen_bool(0.5) { None } else { Some(None) };
        let text = body(&mut rng, &queries, release);
        let old = serde_json::from_str::<OracleRequest>(&text).map_err(|e| e.to_string())?;
        let release = state().cache.get(old.release.as_deref()).ok_or("no default release")?;
        let want = oracle_encode(&release.id, &answer_batch(&release.prefix, &old.queries))
            .ok_or("oracle failed to encode")?;
        let resp = route_batch(&text);
        prop_assert_eq!(resp.status, "200 OK");
        prop_assert_eq!(resp.body, want);
    }

    #[test]
    fn encoder_is_byte_identical_to_serde(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0..32);
        let answers: Vec<Result<f64, String>> = (0..n)
            .map(|_| if rng.gen_bool(0.2) { Err(text(&mut rng)) } else { Ok(sum(&mut rng)) })
            .collect();
        let release = text(&mut rng);
        let want = oracle_encode(&release, &answers).ok_or("oracle failed to encode")?;
        prop_assert_eq!(encode_answers(&release, &answers).map_err(|e| e.to_string())?, want);
    }
}

/// A finite sum from every formatting regime: small and large integral
/// values on both sides of the `9e15` switch, negatives, subnormals,
/// negative zero and arbitrary bit patterns.
fn sum(rng: &mut StdRng) -> f64 {
    let v = match rng.gen_range(0..8) {
        0 => rng.gen_range(-1_000_000i64..1_000_000) as f64,
        1 => rng.gen_range(8_999_999_999_999_000i64..9_000_000_000_001_000) as f64,
        2 => (rng.gen_range(0..1u64 << 62) as f64) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
        3 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
        4 => -0.0,
        5 => rng.gen_range(-1e6..1e6),
        _ => f64::from_bits(rng.gen()),
    };
    if v.is_finite() {
        v
    } else {
        1.5
    }
}

/// An error string or release id with characters JSON must escape.
fn text(rng: &mut StdRng) -> String {
    const CHARS: [char; 12] = [
        'a', 'Z', '7', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', 'é', '😀',
    ];
    (0..rng.gen_range(0..12))
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

#[test]
fn non_finite_sums_fail_like_the_old_encoder() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let answers: Vec<Result<f64, String>> = vec![Ok(1.0), Ok(bad)];
        assert!(oracle_encode("r", &answers).is_none());
        assert!(encode_answers("r", &answers).is_err());
    }
}

/// The wire rules the codec adds. Each body is a `400` now; the flag says
/// whether the old value-tree path accepted it.
#[test]
fn new_wire_rules_are_400s() {
    let q = r#"{"x":[0,2],"y":[0,2],"t":[0,4]}"#;
    let cases: [(&str, String, bool); 12] = [
        (
            "unknown top-level key",
            format!(r#"{{"queries":[{q}],"limit":1}}"#),
            true,
        ),
        (
            "unknown query key",
            r#"{"queries":[{"x":[0,2],"y":[0,2],"t":[0,4],"z":[0,1]}]}"#.into(),
            true,
        ),
        (
            "duplicate top-level key",
            format!(r#"{{"queries":[{q}],"queries":[{q}]}}"#),
            true,
        ),
        (
            "duplicate query key",
            r#"{"queries":[{"x":[0,2],"x":[0,2],"y":[0,2],"t":[0,4]}]}"#.into(),
            true,
        ),
        ("escaped key", format!(r#"{{"quer\u0069es":[{q}]}}"#), true),
        (
            "escaped release",
            format!(r#"{{"release":"a\u0062","queries":[{q}]}}"#),
            true,
        ),
        (
            "fractional coordinate",
            r#"{"queries":[{"x":[0,2.0],"y":[0,2],"t":[0,4]}]}"#.into(),
            true,
        ),
        (
            "exponent coordinate",
            r#"{"queries":[{"x":[0,2e0],"y":[0,2],"t":[0,4]}]}"#.into(),
            true,
        ),
        (
            "negative zero coordinate",
            r#"{"queries":[{"x":[-0,2],"y":[0,2],"t":[0,4]}]}"#.into(),
            true,
        ),
        (
            "truncated fraction",
            r#"{"queries":[{"x":[-1,2.9],"y":[0,2],"t":[0,4]}]}"#.into(),
            false,
        ),
        ("trailing bytes", format!(r#"{{"queries":[{q}]}}x"#), false),
        (
            "deep nesting",
            format!(r#"{{"queries":{}"#, "[".repeat(10_000)),
            false,
        ),
    ];
    for (what, body, old_accepted) in &cases {
        assert_eq!(
            serde_json::from_str::<OracleRequest>(body).is_ok(),
            *old_accepted,
            "{what}: oracle verdict changed"
        );
        assert!(
            decode_batch(body.as_bytes()).is_err(),
            "{what}: codec accepted {body}"
        );
        let resp = route_batch(body);
        assert_eq!(resp.status, "400 Bad Request", "{what}: {}", resp.body);
    }
    // A release id the old path read as `null` still means the default.
    let resp = route_batch(&format!(r#"{{"release":null,"queries":[{q}]}}"#));
    assert_eq!(resp.status, "200 OK", "{}", resp.body);
}
