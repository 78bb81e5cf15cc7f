//! Power level, longitude and category (the paper's Definitions 2–3).
//!
//! Given a task's criticality interval `(s∞, f∞)`, its **power level** is
//!
//! ```text
//! χ = max { χ' ∈ ℤ : ∃ λ ∈ ℕ, s∞ < λ·2^χ' < f∞ }
//! ```
//!
//! — the highest dyadic resolution at which a grid point falls strictly
//! inside the interval. The multiplier `λ` at that level is unique and odd
//! (Lemma 2), and the **category** is the grid point itself,
//! `ζ = λ·2^χ`. Tasks sharing a category have overlapping criticalities
//! and are therefore independent; tasks connected by a dependency have
//! strictly increasing categories (Lemma 5). CatBatch batches tasks by
//! category and processes batches in increasing `ζ`.

use rigid_time::{Dyadic, Pow2, Time, MIN_EXPONENT};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A category `ζ = λ·2^χ`, stored as the exact pair `(χ, λ)`.
///
/// Ordering is by the value `λ·2^χ`; since `λ` is always odd, distinct
/// `(χ, λ)` pairs have distinct values, so this order is total and agrees
/// with equality on the pair.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Category {
    /// Power level `χ` (any sign).
    pub chi: i32,
    /// Longitude `λ` (odd, positive).
    pub lambda: i64,
}

impl Category {
    /// Constructs a category from its power level and longitude.
    ///
    /// # Panics
    /// Panics if `λ` is not odd and positive (Lemma 2 guarantees oddness).
    pub fn new(chi: i32, lambda: i64) -> Self {
        assert!(lambda > 0, "longitude must be positive, got {lambda}");
        assert!(lambda % 2 == 1, "longitude must be odd, got {lambda}");
        Category { chi, lambda }
    }

    /// The category value `ζ = λ·2^χ` as an exact `Time`.
    pub fn value(&self) -> Time {
        Pow2::new(self.chi).grid_point(self.lambda)
    }

    /// The power level as a [`Pow2`].
    pub fn pow2(&self) -> Pow2 {
        Pow2::new(self.chi)
    }

    /// The category's *bracket* `((λ−1)·2^χ, (λ+1)·2^χ)`: by Lemma 2,
    /// every task of this category has `s∞` in the left half and `f∞` in
    /// the right half of this interval.
    pub fn bracket(&self) -> (Time, Time) {
        let p = self.pow2();
        (p.grid_point(self.lambda - 1), p.grid_point(self.lambda + 1))
    }

    /// The two categories one power level below whose brackets tile this
    /// one: `(χ−1, 2λ−1)` and `(χ−1, 2λ+1)` (the dyadic lattice of the
    /// paper's Figure 2).
    pub fn children(&self) -> (Category, Category) {
        (
            Category::new(self.chi - 1, 2 * self.lambda - 1),
            Category::new(self.chi - 1, 2 * self.lambda + 1),
        )
    }

    /// The category one power level above whose bracket contains this
    /// one's.
    pub fn parent(&self) -> Category {
        // One of (λ−1)/2, (λ+1)/2 is odd (they are consecutive integers).
        let lo = (self.lambda - 1) / 2;
        let hi = (self.lambda + 1) / 2;
        if lo % 2 == 1 {
            Category::new(self.chi + 1, lo)
        } else {
            Category::new(self.chi + 1, hi)
        }
    }
}

impl PartialOrd for Category {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Category {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare λ·2^χ without materializing huge numbers: align exponents.
        // λ1·2^χ1 ? λ2·2^χ2  ⇔  λ1·2^(χ1−χ2) ? λ2 (for χ1 ≥ χ2).
        let (a, b) = (self, other);
        let (hi, lo, swap) = if a.chi >= b.chi {
            (a, b, false)
        } else {
            (b, a, true)
        };
        let shift = (hi.chi - lo.chi) as u32;
        let ord = if shift >= 64 {
            // hi's value is at least 2^64 times λ_hi ≥ huge; strictly
            // greater than any i64 λ_lo.
            Ordering::Greater
        } else {
            match (hi.lambda as i128).checked_shl(shift) {
                Some(v) => v.cmp(&(lo.lambda as i128)),
                None => Ordering::Greater,
            }
        };
        if swap {
            ord.reverse()
        } else {
            ord
        }
    }
}

impl fmt::Debug for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ζ={} (λ={}, χ={})", self.value(), self.lambda, self.chi)
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value())
    }
}

/// Computes the category of a task from its criticality interval
/// (the core of the paper's Algorithm 1, `ComputeCat`).
///
/// Endpoints on the dyadic grid — every generated workload, and every
/// instance whose task lengths are dyadic — take an O(1) integer kernel;
/// rational endpoints and the few dyadic intervals the kernel cannot
/// represent take the level-by-level search. Where both answer, they
/// return the same category.
///
/// # Panics
/// Panics if the interval is empty (`f∞ ≤ s∞`) or starts before 0, or if
/// the category's longitude `λ` does not fit an `i64`.
pub fn compute_category(s_inf: Time, f_inf: Time) -> Category {
    assert!(
        f_inf > s_inf,
        "criticality interval must be non-empty: ({s_inf}, {f_inf})"
    );
    assert!(!s_inf.is_negative(), "criticality cannot start before 0");
    dyadic_category(s_inf, f_inf).unwrap_or_else(|| search_category(s_inf, f_inf))
}

/// The O(1) category kernel for dyadic endpoints `0 ≤ s∞ < f∞`.
///
/// Write both endpoints over their common exponent `e` as integers
/// `S = s∞/2^e < F = f∞/2^e`. The grid points of level `e + k` strictly
/// inside the interval are the multiples of `2^k` in `[S+1, F−1]`, and
/// one exists iff `S >> k ≠ (F−1) >> k`. So if `F − S ≥ 2`, the highest
/// such level is the highest bit where `S` and `F − 1` differ,
/// `χ = e + msb(S ⊕ (F−1))`, and `λ = (S >> (χ−e)) + 1`. If `F − S = 1`
/// no level `≥ e` has an inside point, while level `e − 1` has exactly
/// one, the midpoint: `χ = e − 1`, `λ = 2S + 1`.
///
/// Returns `None` — the caller falls back to [`search_category`] — when
/// an endpoint is a rational-variant `Time`, when `S` or `F` does not fit
/// a `u128`, when `χ` falls below the finest grid `2^MIN_EXPONENT`, or when
/// `λ` does not fit an `i64`.
pub(crate) fn dyadic_category(s_inf: Time, f_inf: Time) -> Option<Category> {
    let (s, f) = (s_inf.dyadic()?, f_inf.dyadic()?);
    // The canonical zero carries exponent 0, which is not a bound on the
    // common exponent; zero aligns to anything.
    let e = if s.is_zero() {
        f.exponent()
    } else {
        s.exponent().min(f.exponent())
    };
    let (big_s, big_f) = (aligned(s, e)?, aligned(f, e)?);
    let (chi, lambda) = if big_f - big_s == 1 {
        (e - 1, big_s.checked_mul(2)? + 1)
    } else {
        let k = 127 - (big_s ^ (big_f - 1)).leading_zeros();
        (e + k as i32, (big_s >> k) + 1)
    };
    if chi < MIN_EXPONENT {
        return None;
    }
    Some(Category::new(chi, i64::try_from(lambda).ok()?))
}

/// The non-negative dyadic `d` as the integer `d / 2^e`, for `e` at most
/// `d`'s exponent; `None` when it does not fit a `u128`.
fn aligned(d: Dyadic, e: i32) -> Option<u128> {
    let m = u128::try_from(d.mantissa()).ok()?;
    if m == 0 {
        return Some(0);
    }
    let shift = u32::try_from(d.exponent() - e).ok()?;
    (m.leading_zeros() >= shift).then(|| m << shift)
}

/// The reference category search: walks `χ` down one power level at a
/// time from the largest `2^χ < f∞` until a multiple of `2^χ` falls
/// strictly inside the interval. Handles every input on which the kernel
/// declines, and is the oracle the kernel is tested against.
///
/// # Panics
/// Panics if the category's longitude `λ` does not fit an `i64`.
pub(crate) fn search_category(s_inf: Time, f_inf: Time) -> Category {
    // The largest candidate power level: χ with 2^χ < f∞ (for any larger
    // χ, even λ = 1 overshoots).
    let mut chi = Pow2::largest_below(f_inf).exponent();
    loop {
        let p = Pow2::new(chi);
        // Smallest multiple of 2^χ strictly greater than s∞. Each level
        // down at least doubles λ − 1, so once λ overflows here it
        // overflows at the level the search stops at too.
        let lambda = i64::try_from(p.next_multiple_after(s_inf)).unwrap_or_else(|_| {
            panic!("criticality interval ({s_inf}, {f_inf}): category longitude overflows i64")
        });
        if p.grid_point(lambda) < f_inf {
            // Found the maximal level. Lemma 2: λ is odd.
            debug_assert!(lambda % 2 == 1, "Lemma 2 violated: λ = {lambda} even");
            return Category::new(chi, lambda);
        }
        chi -= 1;
        // Termination: once 2^χ < f∞ − s∞, the next multiple after s∞ is
        // at most s∞ + 2^χ < f∞. The assert below is a safety net against
        // arithmetic bugs.
        assert!(chi >= -1000, "compute_category failed to converge");
    }
}

/// Convenience: the category of a task given its criticality.
pub fn category_of(crit: &rigid_dag::analysis::Criticality) -> Category {
    compute_category(crit.start, crit.finish)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: i64, ms: i64) -> Time {
        Time::from_millis(i, ms)
    }

    /// The full attribute table of the paper's Figure 3.
    #[test]
    fn figure3_categories() {
        // (label, s∞, f∞, λ, χ, ζ as (num, den))
        let table = [
            ("A", t(0, 0), t(6, 0), 1, 2, (4, 1)),
            ("B", t(0, 0), t(2, 0), 1, 0, (1, 1)),
            ("C", t(0, 0), t(2, 500), 1, 1, (2, 1)),
            ("D", t(0, 0), t(3, 0), 1, 1, (2, 1)),
            ("E", t(2, 0), t(4, 800), 1, 2, (4, 1)),
            ("F", t(3, 0), t(3, 600), 7, -1, (7, 2)),
            ("G", t(3, 0), t(3, 800), 7, -1, (7, 2)),
            ("H", t(4, 800), t(6, 0), 5, 0, (5, 1)),
            ("I", t(3, 600), t(4, 200), 1, 2, (4, 1)),
            ("J", t(6, 0), t(6, 800), 13, -1, (13, 2)),
            ("K", t(4, 200), t(5, 600), 5, 0, (5, 1)),
        ];
        for (label, s, f, lambda, chi, (zn, zd)) in table {
            let c = compute_category(s, f);
            assert_eq!(c.lambda, lambda, "λ of {label}");
            assert_eq!(c.chi, chi, "χ of {label}");
            assert_eq!(c.value(), Time::from_ratio(zn, zd), "ζ of {label}");
        }
    }

    #[test]
    fn boundary_points_are_excluded() {
        // Interval (0, 2): the point 2 = 1·2^1 is NOT strictly inside, so
        // the category must be ζ = 1 (χ = 0), not ζ = 2.
        let c = compute_category(Time::ZERO, Time::from_int(2));
        assert_eq!((c.chi, c.lambda), (0, 1));
        // Interval (0, 2 + tiny): now 2 IS inside.
        let c2 = compute_category(Time::ZERO, Time::from_ratio(2001, 1000));
        assert_eq!((c2.chi, c2.lambda), (1, 1));
    }

    #[test]
    fn tiny_interval_deep_level() {
        // Interval (1, 1 + 1/1024): grid points of 2^-10 hit inside? The
        // interval (1, 1.0009765625): contains 1 + 1/1024 exclusive? The
        // point 1·2^0 = 1 is excluded (equal to s∞). Deepest levels needed.
        let s = Time::ONE;
        let f = Time::ONE + Time::from_ratio(1, 1024);
        let c = compute_category(s, f);
        // λ·2^χ ∈ (1, 1+2^-10): the largest χ is -11 with λ = 2^11+1 = 2049.
        assert_eq!(c.chi, -11);
        assert_eq!(c.lambda, 2049);
        assert!(c.value() > s && c.value() < f);
    }

    #[test]
    fn ordering_matches_values() {
        let a = Category::new(2, 1); // 4
        let b = Category::new(0, 5); // 5
        let c = Category::new(-1, 7); // 3.5
        let d = Category::new(-1, 13); // 6.5
        let mut v = [a, b, c, d];
        v.sort();
        assert_eq!(v, [c, a, b, d]);
    }

    #[test]
    fn ordering_extreme_exponent_gap() {
        let big = Category::new(100, 1);
        let small = Category::new(-100, 7);
        assert!(small < big);
        assert!(big > small);
        assert_eq!(big.cmp(&big), std::cmp::Ordering::Equal);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_lambda_rejected() {
        let _ = Category::new(0, 2);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_interval_rejected() {
        let _ = compute_category(Time::ONE, Time::ONE);
    }

    /// The kernel declines rational endpoints and intervals whose
    /// aligned integers overflow `u128`; the search answers them.
    #[test]
    fn kernel_declines_to_the_search() {
        let third = (Time::from_ratio(1, 3), Time::ONE);
        let wide = (Time::from_dyadic(1, -100), Time::from_dyadic(1, 100));
        for (s, f) in [third, wide] {
            assert_eq!(dyadic_category(s, f), None, "({s}, {f})");
        }
        assert_eq!(compute_category(third.0, third.1), Category::new(-1, 1));
        assert_eq!(compute_category(wide.0, wide.1), Category::new(99, 1));
    }

    /// At the top of the exponent range the kernel answers where the
    /// search's rational grid points overflow `i128`.
    #[test]
    fn kernel_answers_at_the_top_of_the_range() {
        let c = compute_category(Time::from_dyadic(5, 124), Time::from_dyadic(7, 124));
        assert_eq!(c, Category::new(125, 3));
        let c = compute_category(Time::from_dyadic(1, 125), Time::from_dyadic(3, 125));
        assert_eq!(c, Category::new(126, 1));
    }

    /// The category of `(1024, 1024 + 2^-62)` is `χ = −63`,
    /// `λ = 2^73 + 1`, which does not fit an `i64`; the search used to
    /// wrap λ to a negative longitude.
    #[test]
    #[should_panic(
        expected = "(1024, 4722366482869645213697/4611686018427387904): category longitude overflows i64"
    )]
    fn longitude_overflow_rational_endpoint() {
        let eps = Time::from_rational(rigid_time::Rational::new(1, 1 << 62));
        let _ = compute_category(Time::from_int(1024), Time::from_int(1024) + eps);
    }

    /// Dyadic endpoints whose category has λ = 2^63 + 1: the kernel
    /// declines, and the search reports the same overflow.
    #[test]
    #[should_panic(expected = "category longitude overflows i64")]
    fn longitude_overflow_dyadic_endpoints() {
        let s = Time::from_dyadic(1, 60);
        let f = Time::from_dyadic((1 << 62) + 1, -2);
        assert_eq!(dyadic_category(s, f), None);
        let _ = compute_category(s, f);
    }

    #[test]
    fn category_value_strictly_inside_interval() {
        // ζ ∈ (s∞, f∞) by definition; exercise a spread of intervals.
        let cases = [
            (t(0, 0), t(0, 1)),
            (t(0, 999), t(1, 1)),
            (t(5, 250), t(5, 750)),
            (t(127, 0), t(129, 0)),
            (t(0, 0), t(1000, 0)),
        ];
        for (s, f) in cases {
            let c = compute_category(s, f);
            assert!(c.value() > s && c.value() < f, "ζ outside ({s}, {f})");
        }
    }

    #[test]
    fn lattice_children_tile_bracket() {
        for (chi, lambda) in [(0, 1i64), (0, 5), (2, 3), (-1, 13), (1, 7)] {
            let c = Category::new(chi, lambda);
            let (lo, hi) = c.bracket();
            let (left, right) = c.children();
            assert_eq!(left.bracket().0, lo);
            assert_eq!(left.bracket().1, c.value());
            assert_eq!(right.bracket().0, c.value());
            assert_eq!(right.bracket().1, hi);
            // Both children report this category as their parent.
            assert_eq!(left.parent(), c);
            assert_eq!(right.parent(), c);
        }
    }

    #[test]
    fn parent_bracket_contains_child_bracket() {
        for (chi, lambda) in [(0, 1i64), (0, 3), (0, 5), (-2, 9), (3, 11)] {
            let c = Category::new(chi, lambda);
            let p = c.parent();
            assert_eq!(p.chi, chi + 1);
            let (clo, chi_t) = c.bracket();
            let (plo, phi) = p.bracket();
            assert!(plo <= clo && chi_t <= phi, "nesting for {c:?}");
        }
    }

    #[test]
    fn lemma2_brackets() {
        // (λ−1)·2^χ ≤ s∞ and f∞ ≤ (λ+1)·2^χ.
        let cases = [
            (t(2, 0), t(4, 800)),
            (t(3, 600), t(4, 200)),
            (t(4, 800), t(6, 0)),
            (t(0, 10), t(0, 30)),
        ];
        for (s, f) in cases {
            let c = compute_category(s, f);
            let p = c.pow2();
            assert!(
                p.grid_point(c.lambda - 1) <= s,
                "left bracket for ({s},{f})"
            );
            assert!(
                f <= p.grid_point(c.lambda + 1),
                "right bracket for ({s},{f})"
            );
        }
    }
}
