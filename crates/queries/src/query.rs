//! Spatio-temporal range queries (Definition 3) and the workload generators
//! used in the evaluation (Section 5.1): small `1×1×1` queries, large
//! `10×10×10` queries, and queries of random shape and size.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A 3-orthotope over the consumption matrix: half-open index ranges in
/// `x`, `y` and `t`.
///
/// `Deserialize` is implemented by hand rather than derived: the public
/// fields would otherwise let wire input bypass [`RangeQuery::try_new`]
/// validation entirely. Structural validity (non-empty, non-inverted
/// ranges) is enforced at deserialization time; upper bounds depend on the
/// target matrix's shape and are enforced at evaluation time by
/// [`crate::PrefixSum3D::try_range_sum`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RangeQuery {
    /// `[x0, x1)` spatial range.
    pub x: (usize, usize),
    /// `[y0, y1)` spatial range.
    pub y: (usize, usize),
    /// `[t0, t1)` time range.
    pub t: (usize, usize),
}

impl Deserialize for RangeQuery {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::DeError::custom("expected object for RangeQuery"))?;
        let x = <(usize, usize)>::from_value(serde::get_field(fields, "x")?)?;
        let y = <(usize, usize)>::from_value(serde::get_field(fields, "y")?)?;
        let t = <(usize, usize)>::from_value(serde::get_field(fields, "t")?)?;
        RangeQuery::try_nonempty(x, y, t).map_err(|e| serde::DeError::custom(e.to_string()))
    }
}

/// Error from [`RangeQuery::try_nonempty`]: a range whose lower end is
/// not below its upper end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyRangeQuery {
    /// Failing axis: `'x'`, `'y'` or `'t'`.
    pub axis: char,
    /// The offending half-open range.
    pub range: (usize, usize),
}

impl std::fmt::Display for EmptyRangeQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {} range {:?}: empty or inverted",
            self.axis, self.range
        )
    }
}

impl std::error::Error for EmptyRangeQuery {}

/// Error from [`RangeQuery::try_new`]: which axis failed validation and
/// with what bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidRangeQuery {
    /// Failing axis: `'x'`, `'y'` or `'t'`.
    pub axis: char,
    /// The offending half-open range.
    pub range: (usize, usize),
    /// The matrix extent along that axis.
    pub bound: usize,
}

impl std::fmt::Display for InvalidRangeQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {} range {:?} for c{}={}",
            self.axis, self.range, self.axis, self.bound
        )
    }
}

impl std::error::Error for InvalidRangeQuery {}

impl RangeQuery {
    /// Construct a query, validating that each range is non-empty and within
    /// a `cx × cy × ct` matrix.
    pub fn new(
        x: (usize, usize),
        y: (usize, usize),
        t: (usize, usize),
        (cx, cy, ct): (usize, usize, usize),
    ) -> Self {
        assert!(x.0 < x.1 && x.1 <= cx, "invalid x range {x:?} for cx={cx}");
        assert!(y.0 < y.1 && y.1 <= cy, "invalid y range {y:?} for cy={cy}");
        assert!(t.0 < t.1 && t.1 <= ct, "invalid t range {t:?} for ct={ct}");
        RangeQuery { x, y, t }
    }

    /// Non-panicking [`RangeQuery::new`]: rejects empty, inverted and
    /// out-of-bounds ranges with a structured error. Use this wherever the
    /// bounds come from data rather than from code (the public struct
    /// fields make validation bypassable — going through `try_new` keeps
    /// [`crate::PrefixSum3D::range_sum`]'s invariants intact).
    pub fn try_new(
        x: (usize, usize),
        y: (usize, usize),
        t: (usize, usize),
        (cx, cy, ct): (usize, usize, usize),
    ) -> Result<Self, InvalidRangeQuery> {
        for (axis, range, bound) in [('x', x, cx), ('y', y, cy), ('t', t, ct)] {
            if !(range.0 < range.1 && range.1 <= bound) {
                return Err(InvalidRangeQuery { axis, range, bound });
            }
        }
        Ok(RangeQuery { x, y, t })
    }

    /// The wire-boundary check: every range non-empty and non-inverted.
    /// Upper bounds depend on the target matrix and are left to
    /// [`crate::PrefixSum3D::try_range_sum`]. Every decoder of untrusted
    /// queries goes through this one constructor, so an empty or inverted
    /// range is rejected the same way on every path.
    pub fn try_nonempty(
        x: (usize, usize),
        y: (usize, usize),
        t: (usize, usize),
    ) -> Result<Self, EmptyRangeQuery> {
        for (axis, range) in [('x', x), ('y', y), ('t', t)] {
            if range.0 >= range.1 {
                return Err(EmptyRangeQuery { axis, range });
            }
        }
        Ok(RangeQuery { x, y, t })
    }

    /// Number of cells covered.
    pub fn volume(&self) -> usize {
        (self.x.1 - self.x.0) * (self.y.1 - self.y.0) * (self.t.1 - self.t.0)
    }
}

/// The three workload classes of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryClass {
    /// `1×1×1` point queries.
    Small,
    /// `10×10×10` block queries (clamped to the matrix if it is smaller).
    Large,
    /// Uniformly random shape and size.
    Random,
}

impl QueryClass {
    /// Label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            QueryClass::Small => "Small",
            QueryClass::Large => "Large",
            QueryClass::Random => "Random",
        }
    }

    /// All classes in the paper's presentation order (random first).
    pub const ALL: [QueryClass; 3] = [QueryClass::Random, QueryClass::Small, QueryClass::Large];
}

/// Generate `n` queries of the given class over a `cx × cy × ct` matrix.
pub fn generate_queries(
    class: QueryClass,
    n: usize,
    shape: (usize, usize, usize),
    rng: &mut impl Rng,
) -> Vec<RangeQuery> {
    let (cx, cy, ct) = shape;
    (0..n)
        .map(|_| match class {
            QueryClass::Small => {
                let x = rng.gen_range(0..cx);
                let y = rng.gen_range(0..cy);
                let t = rng.gen_range(0..ct);
                RangeQuery::new((x, x + 1), (y, y + 1), (t, t + 1), shape)
            }
            QueryClass::Large => {
                let dx = 10.min(cx);
                let dy = 10.min(cy);
                let dt = 10.min(ct);
                let x = rng.gen_range(0..=cx - dx);
                let y = rng.gen_range(0..=cy - dy);
                let t = rng.gen_range(0..=ct - dt);
                RangeQuery::new((x, x + dx), (y, y + dy), (t, t + dt), shape)
            }
            QueryClass::Random => {
                let (x0, x1) = random_range(cx, rng);
                let (y0, y1) = random_range(cy, rng);
                let (t0, t1) = random_range(ct, rng);
                RangeQuery::new((x0, x1), (y0, y1), (t0, t1), shape)
            }
        })
        .collect()
}

/// A uniformly random non-empty half-open sub-range of `[0, n)`.
fn random_range(n: usize, rng: &mut impl Rng) -> (usize, usize) {
    let a = rng.gen_range(0..n);
    let b = rng.gen_range(0..n);
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    (lo, hi + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SHAPE: (usize, usize, usize) = (32, 32, 120);

    #[test]
    fn small_queries_are_unit_volume() {
        let mut rng = StdRng::seed_from_u64(0);
        for q in generate_queries(QueryClass::Small, 200, SHAPE, &mut rng) {
            assert_eq!(q.volume(), 1);
        }
    }

    #[test]
    fn large_queries_are_1000_cells() {
        let mut rng = StdRng::seed_from_u64(1);
        for q in generate_queries(QueryClass::Large, 200, SHAPE, &mut rng) {
            assert_eq!(q.volume(), 1000);
            assert!(q.x.1 <= 32 && q.y.1 <= 32 && q.t.1 <= 120);
        }
    }

    #[test]
    fn large_queries_clamp_to_small_matrices() {
        let mut rng = StdRng::seed_from_u64(2);
        for q in generate_queries(QueryClass::Large, 50, (4, 4, 6), &mut rng) {
            assert_eq!(q.volume(), 4 * 4 * 6);
        }
    }

    #[test]
    fn random_queries_stay_in_bounds_and_vary() {
        let mut rng = StdRng::seed_from_u64(3);
        let qs = generate_queries(QueryClass::Random, 300, SHAPE, &mut rng);
        let mut volumes: Vec<usize> = qs.iter().map(RangeQuery::volume).collect();
        assert!(qs
            .iter()
            .all(|q| q.x.1 <= 32 && q.y.1 <= 32 && q.t.1 <= 120));
        volumes.sort_unstable();
        volumes.dedup();
        assert!(volumes.len() > 20, "volumes not diverse: {}", volumes.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_queries(QueryClass::Random, 10, SHAPE, &mut StdRng::seed_from_u64(4));
        let b = generate_queries(QueryClass::Random, 10, SHAPE, &mut StdRng::seed_from_u64(4));
        assert_eq!(a, b);
    }

    #[test]
    fn try_new_rejects_what_new_panics_on() {
        let shape = (4, 4, 4);
        assert!(RangeQuery::try_new((0, 2), (1, 3), (0, 4), shape).is_ok());
        // Empty range.
        let e = RangeQuery::try_new((3, 3), (0, 1), (0, 1), shape).unwrap_err();
        assert_eq!(e.axis, 'x');
        assert_eq!(e.to_string(), "invalid x range (3, 3) for cx=4");
        // Inverted range — the case the public fields let bypass `new`.
        let e = RangeQuery::try_new((0, 1), (3, 1), (0, 1), shape).unwrap_err();
        assert_eq!(e.axis, 'y');
        // Out of bounds.
        let e = RangeQuery::try_new((0, 1), (0, 1), (0, 10), shape).unwrap_err();
        assert_eq!(e.axis, 't');
        assert_eq!(e.bound, 4);
    }

    #[test]
    fn deserialize_round_trips_valid_queries() {
        let q = RangeQuery::new((1, 3), (0, 2), (4, 9), (4, 4, 16));
        let json = serde_json::to_string(&q).expect("serialize");
        let back: RangeQuery = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(q, back);
    }

    #[test]
    fn deserialize_rejects_inverted_and_empty_ranges() {
        // Inverted: would previously deserialize fine and later poison
        // range_sum's inclusion–exclusion.
        let err = serde_json::from_str::<RangeQuery>(r#"{"x":[3,1],"y":[0,2],"t":[0,2]}"#)
            .expect_err("inverted range must be rejected");
        assert!(err.to_string().contains("invalid x range"), "{err}");
        // Empty.
        assert!(serde_json::from_str::<RangeQuery>(r#"{"x":[0,1],"y":[2,2],"t":[0,2]}"#).is_err());
        // Structurally malformed.
        assert!(serde_json::from_str::<RangeQuery>(r#"{"x":[0,1],"y":[0,2]}"#).is_err());
        assert!(serde_json::from_str::<RangeQuery>(r#"[1,2,3]"#).is_err());
        // Fractional and negative coordinates are not silently cast.
        for bad in [
            r#"{"x":[-1,2],"y":[0,2],"t":[0,2]}"#,
            r#"{"x":[0,2.9],"y":[0,2],"t":[0,2]}"#,
            r#"{"x":[0.5,1e30],"y":[0,2],"t":[0,2]}"#,
        ] {
            assert!(serde_json::from_str::<RangeQuery>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn try_nonempty_names_the_axis() {
        assert!(RangeQuery::try_nonempty((0, 1), (5, 6), (0, usize::MAX)).is_ok());
        let e = RangeQuery::try_nonempty((0, 1), (2, 2), (0, 1)).unwrap_err();
        assert_eq!(
            e,
            EmptyRangeQuery {
                axis: 'y',
                range: (2, 2)
            }
        );
        assert_eq!(e.to_string(), "invalid y range (2, 2): empty or inverted");
        let e = RangeQuery::try_nonempty((0, 1), (0, 1), (9, 3)).unwrap_err();
        assert_eq!(e.axis, 't');
    }

    #[test]
    #[should_panic(expected = "invalid x range")]
    fn new_rejects_empty_range() {
        let _ = RangeQuery::new((3, 3), (0, 1), (0, 1), (4, 4, 4));
    }

    #[test]
    #[should_panic(expected = "invalid t range")]
    fn new_rejects_out_of_bounds() {
        let _ = RangeQuery::new((0, 1), (0, 1), (0, 10), (4, 4, 4));
    }
}
