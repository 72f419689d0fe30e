//! The `POST /query` wire codec.
//!
//! The batch grammar is fixed, so the body is decoded in one forward pass
//! over its bytes straight into [`RangeQuery`] values, with no JSON value
//! tree and no per-key allocation:
//!
//! ```text
//! batch  = ws "{" ws member ( ws "," ws member )* ws "}" ws
//! member = "\"queries\"" ws ":" ws "[" ws ( query ( ws "," ws query )* )? ws "]"
//!        | "\"release\"" ws ":" ws ( string | "null" )
//! query  = "{" ws field ws "," ws field ws "," ws field ws "}"
//! field  = ( "\"x\"" | "\"y\"" | "\"t\"" ) ws ":" ws "[" ws uint ws "," ws uint ws "]"
//! uint   = digit+            (must fit usize)
//! string = "\"" (any byte but `"` and `\`)* "\""   (must be UTF-8)
//! ws     = ( " " | "\t" | "\n" | "\r" )*
//! ```
//!
//! `queries` is required; each key appears at most once per object, in any
//! order. Unknown, duplicate or escaped keys, an escaped release id,
//! fractional, signed or exponent coordinates, and trailing bytes are all
//! errors (→ `400`), like `GET /query`'s strict parameter parsing. The
//! grammar nests four levels deep at most, so no input can exhaust the
//! stack. The rule that an empty or inverted range rejects the batch is
//! [`RangeQuery::try_nonempty`], shared with `RangeQuery`'s `Deserialize`
//! impl.
//!
//! Answers are written into one pre-sized `String` in the field order and
//! number format the serde shim produced, so responses are byte-identical
//! to the previous derive-based encoder (pinned by
//! `tests/codec_differential.rs`).

use std::fmt::{self, Display, Write};
use stpt_dp::mechanism::is_exact_zero;
use stpt_queries::{EmptyRangeQuery, RangeQuery};

/// A decoded batch: the optional target release and its queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch<'a> {
    /// Release id, or `None` for the daemon's default release.
    pub release: Option<&'a str>,
    /// Queries in request order, each non-empty and non-inverted.
    pub queries: Vec<RangeQuery>,
}

/// Why a batch body was rejected, and at which byte. Plain data, so the
/// decoder's error paths cost nothing until the message is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    at: usize,
    kind: ErrorKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrorKind {
    /// A fixed message.
    Syntax(&'static str),
    /// A byte other than the one the grammar requires.
    Expected(u8),
    /// Neither `,` nor the given closing bracket after a list element.
    ExpectedCommaOr(u8),
    /// Query number `index` holds an empty or inverted range.
    EmptyRange { index: usize, err: EmptyRangeQuery },
}

impl Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ErrorKind::Syntax(what) => write!(f, "{what} at byte {}", self.at),
            ErrorKind::Expected(b) => write!(f, "expected `{}` at byte {}", b as char, self.at),
            ErrorKind::ExpectedCommaOr(b) => {
                write!(f, "expected `,` or `{}` at byte {}", b as char, self.at)
            }
            ErrorKind::EmptyRange { index, err } => {
                write!(f, "query {index} at byte {}: {err}", self.at)
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// An answer sum that JSON cannot represent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonFiniteSum;

impl Display for NonFiniteSum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JSON error: cannot serialise a non-finite number")
    }
}

impl std::error::Error for NonFiniteSum {}

/// Decode a `POST /query` body (see the module docs for the grammar).
pub fn decode_batch(body: &[u8]) -> Result<Batch<'_>, DecodeError> {
    let mut d = Decoder {
        bytes: body,
        pos: 0,
    };
    let mut release = None;
    let mut queries = None;
    d.eat(b'{')?;
    loop {
        let at = d.pos;
        match d.key()? {
            b"queries" if queries.is_none() => queries = Some(d.queries()?),
            b"release" if release.is_none() => release = Some(d.release_id()?),
            b"queries" | b"release" => return Err(syntax(at, "duplicate key")),
            _ => return Err(syntax(at, "unknown key")),
        }
        if d.next_or_end(b'}')? {
            break;
        }
    }
    d.skip_ws();
    if d.pos != body.len() {
        return Err(syntax(d.pos, "trailing bytes"));
    }
    Ok(Batch {
        release: release.flatten(),
        queries: queries.ok_or(syntax(d.pos, "missing key \"queries\""))?,
    })
}

fn syntax(at: usize, what: &'static str) -> DecodeError {
    DecodeError {
        at,
        kind: ErrorKind::Syntax(what),
    }
}

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn error(&self, kind: ErrorKind) -> DecodeError {
        DecodeError { at: self.pos, kind }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, then consume `byte` or fail.
    fn eat(&mut self, byte: u8) -> Result<(), DecodeError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(ErrorKind::Expected(byte)))
        }
    }

    /// After a list element: `true` on the closing `end`, `false` on `,`.
    fn next_or_end(&mut self, end: u8) -> Result<bool, DecodeError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(&b) if b == end => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.error(ErrorKind::ExpectedCommaOr(end))),
        }
    }

    /// A string with no escapes, as raw bytes.
    fn raw_string(&mut self) -> Result<&'a [u8], DecodeError> {
        self.eat(b'"')?;
        let start = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => break,
                Some(b'\\') => return Err(syntax(self.pos, "escaped string")),
                Some(_) => self.pos += 1,
                None => return Err(syntax(self.pos, "unterminated string")),
            }
        }
        let s = &self.bytes[start..self.pos];
        self.pos += 1;
        Ok(s)
    }

    /// An object key and its `:`.
    fn key(&mut self) -> Result<&'a [u8], DecodeError> {
        let k = self.raw_string()?;
        self.eat(b':')?;
        Ok(k)
    }

    /// The `release` value: a string, or `null` for the default release.
    fn release_id(&mut self) -> Result<Option<&'a str>, DecodeError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(b"null") {
            self.pos += 4;
            return Ok(None);
        }
        let at = self.pos;
        let raw = self.raw_string()?;
        std::str::from_utf8(raw)
            .map(Some)
            .map_err(|_| syntax(at, "release is not UTF-8"))
    }

    /// The `queries` array.
    fn queries(&mut self) -> Result<Vec<RangeQuery>, DecodeError> {
        self.eat(b'[')?;
        // The shortest query, `{"x":[0,1],"y":[0,1],"t":[0,1]},`, is 32
        // bytes, so this never reallocates.
        let mut out = Vec::with_capacity((self.bytes.len() - self.pos) / 32);
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(self.query(out.len())?);
            if self.next_or_end(b']')? {
                return Ok(out);
            }
        }
    }

    /// Query number `index` of the batch.
    fn query(&mut self, index: usize) -> Result<RangeQuery, DecodeError> {
        self.skip_ws();
        let start = self.pos;
        self.eat(b'{')?;
        let mut axes: [Option<(usize, usize)>; 3] = [None; 3];
        loop {
            let at = self.pos;
            let slot = match self.key()? {
                b"x" => 0,
                b"y" => 1,
                b"t" => 2,
                _ => return Err(syntax(at, "unknown key")),
            };
            if axes[slot].is_some() {
                return Err(syntax(at, "duplicate key"));
            }
            axes[slot] = Some(self.pair()?);
            if self.next_or_end(b'}')? {
                break;
            }
        }
        let [Some(x), Some(y), Some(t)] = axes else {
            return Err(syntax(self.pos, "query lacks one of \"x\", \"y\", \"t\""));
        };
        RangeQuery::try_nonempty(x, y, t).map_err(|err| DecodeError {
            at: start,
            kind: ErrorKind::EmptyRange { index, err },
        })
    }

    /// A `[lo,hi]` pair of coordinates.
    fn pair(&mut self) -> Result<(usize, usize), DecodeError> {
        self.eat(b'[')?;
        let lo = self.uint()?;
        self.eat(b',')?;
        let hi = self.uint()?;
        self.eat(b']')?;
        Ok((lo, hi))
    }

    /// An unsigned decimal integer literal that fits `usize`.
    fn uint(&mut self) -> Result<usize, DecodeError> {
        self.skip_ws();
        let start = self.pos;
        let mut v: usize = 0;
        while let Some(&b @ b'0'..=b'9') = self.bytes.get(self.pos) {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(usize::from(b - b'0')))
                .ok_or(syntax(start, "coordinate overflows usize"))?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(syntax(start, "expected a non-negative integer coordinate"));
        }
        Ok(v)
    }
}

/// Encode a batch response,
/// `{"release":…,"answers":[{"sum":…,"error":null},…]}`, with one
/// `{"sum":null,"error":"…"}` entry per failed answer. A non-finite sum
/// has no JSON form and fails the whole response.
pub fn encode_answers<E: Display>(
    release: &str,
    answers: &[Result<f64, E>],
) -> Result<String, NonFiniteSum> {
    // About 40 bytes per answer: 22 of framing plus a 17-digit sum.
    let mut out = String::with_capacity(32 + release.len() + 40 * answers.len());
    out.push_str("{\"release\":");
    push_json_string(&mut out, release);
    out.push_str(",\"answers\":[");
    for (i, answer) in answers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match answer {
            Ok(sum) => {
                out.push_str("{\"sum\":");
                push_number(&mut out, *sum)?;
                out.push_str(",\"error\":null}");
            }
            Err(e) => {
                out.push_str("{\"sum\":null,\"error\":");
                push_json_string(&mut out, &e.to_string());
                out.push('}');
            }
        }
    }
    out.push_str("]}");
    Ok(out)
}

/// A finite number as the serde shim writes it: integral values below
/// `9e15` in magnitude as integers, everything else in Rust's shortest
/// round-trip form.
fn push_number(out: &mut String, n: f64) -> Result<(), NonFiniteSum> {
    if !n.is_finite() {
        return Err(NonFiniteSum);
    }
    // Writing into a `String` cannot fail.
    let _ = if is_exact_zero(n.fract()) && n.abs() < 9e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    };
    Ok(())
}

/// Append `s` as a JSON string literal.
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(x: (usize, usize), y: (usize, usize), t: (usize, usize)) -> RangeQuery {
        RangeQuery { x, y, t }
    }

    #[test]
    fn decodes_the_documented_grammar() {
        let b = decode_batch(
            br#" { "queries" : [ {"t":[0,4],"x":[ 1 , 2 ],"y":[0,3]} , {"x":[0,1],"y":[0,1],"t":[0,1]} ] , "release":"r1" } "#,
        )
        .expect("valid batch");
        assert_eq!(b.release, Some("r1"));
        assert_eq!(
            b.queries,
            vec![q((1, 2), (0, 3), (0, 4)), q((0, 1), (0, 1), (0, 1))]
        );
        let b = decode_batch(br#"{"release":null,"queries":[]}"#).expect("empty batch");
        assert_eq!(
            b,
            Batch {
                release: None,
                queries: vec![]
            }
        );
        let max = format!(
            r#"{{"queries":[{{"x":[0,{}],"y":[0,1],"t":[0,1]}}]}}"#,
            usize::MAX
        );
        assert_eq!(
            decode_batch(max.as_bytes()).expect("usize::MAX").queries[0]
                .x
                .1,
            usize::MAX
        );
    }

    #[test]
    fn rejects_everything_outside_the_grammar() {
        let valid = r#"{"x":[0,1],"y":[0,1],"t":[0,1]}"#;
        for bad in [
            String::new(),
            "[]".into(),
            "{}".into(),
            format!(r#"{{"queries":[{valid}]}} x"#),
            format!(r#"{{"queries":[{valid}],"extra":1}}"#),
            format!(r#"{{"queries":[{valid}],"queries":[]}}"#),
            format!(r#"{{"queries":[{valid}],"release":"a\"b"}}"#),
            format!(r#"{{"queries":[{valid}],"release":5}}"#),
            format!(r#"{{"queries":[{valid},]}}"#),
            r#"{"queries":[{"x":[0,1],"y":[0,1]}]}"#.into(),
            r#"{"queries":[{"x":[0,1],"x":[0,1],"y":[0,1],"t":[0,1]}]}"#.into(),
            r#"{"queries":[{"x":[0,1],"y":[0,1],"t":[0,1],"z":[0,1]}]}"#.into(),
            r#"{"queries":[{"x":[0,1,2],"y":[0,1],"t":[0,1]}]}"#.into(),
            r#"{"queries":[{"x":[-1,2],"y":[0,1],"t":[0,1]}]}"#.into(),
            r#"{"queries":[{"x":[0,2.9],"y":[0,1],"t":[0,1]}]}"#.into(),
            r#"{"queries":[{"x":[0,1e3],"y":[0,1],"t":[0,1]}]}"#.into(),
            r#"{"queries":[{"x":[0,99999999999999999999],"y":[0,1],"t":[0,1]}]}"#.into(),
            format!(r#"{{"queries":{}"#, "[".repeat(10_000)),
        ] {
            assert!(decode_batch(bad.as_bytes()).is_err(), "{bad}");
        }
        assert!(decode_batch(b"{\"release\":\"\xff\",\"queries\":[]}").is_err());
    }

    #[test]
    fn inverted_and_empty_ranges_name_their_axis() {
        let e = decode_batch(
            br#"{"queries":[{"x":[0,1],"y":[0,1],"t":[0,1]},{"x":[0,1],"y":[3,1],"t":[0,1]}]}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("query 1"), "{e}");
        assert!(
            e.to_string()
                .contains("invalid y range (3, 1): empty or inverted"),
            "{e}"
        );
        let e = decode_batch(br#"{"queries":[{"x":[0,1],"y":[0,1],"t":[2,2]}]}"#).unwrap_err();
        assert!(e.to_string().contains("invalid t range"), "{e}");
    }

    #[test]
    fn encodes_sums_errors_and_rejects_non_finite() {
        let answers: Vec<Result<f64, &str>> = vec![Ok(3.0), Ok(-0.25), Err("bad \"t\"\n")];
        assert_eq!(
            encode_answers("r\"1", &answers).unwrap(),
            r#"{"release":"r\"1","answers":[{"sum":3,"error":null},{"sum":-0.25,"error":null},{"sum":null,"error":"bad \"t\"\n"}]}"#
        );
        assert_eq!(
            encode_answers::<&str>("r", &[]).unwrap(),
            r#"{"release":"r","answers":[]}"#
        );
        assert_eq!(
            encode_answers::<&str>("r", &[Ok(f64::NAN)]),
            Err(NonFiniteSum)
        );
    }
}
