//! The [`Time`] type: an exact, totally ordered instant/duration scalar.
//!
//! `Time` is used for every temporal quantity in the workspace: task
//! execution times, schedule start/finish instants, criticalities, category
//! boundaries, areas and makespans. Internally it is a sealed two-variant
//! value — a fixed-point [`Dyadic`] while the value stays on the dyadic
//! grid (the overwhelmingly common case: the paper's category machinery and
//! all generated workloads live on `λ·2^χ` points) and an exact reduced
//! [`Rational`] otherwise. The representation is invisible to callers:
//! construction goes through the canonicalizing constructors below, and
//! comparison, hashing, display and serialization are value-based and
//! byte-identical to the old rational-only representation.
//!
//! # Canonical-representation invariant
//!
//! Every value that *can* be represented as a [`Dyadic`] *is* stored as
//! the dyadic variant. Arithmetic that falls back to rationals re-enters
//! through [`Time::from_rational`], which re-canonicalizes — so equal
//! values always share a variant and derived `PartialEq`/`Eq`/`Hash` on
//! the internal enum are value-correct.

use crate::dyadic::Dyadic;
use crate::rational::Rational;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An exact instant or duration.
///
/// Arithmetic is exact and checked: the dyadic fast path handles grid
/// values in a couple of integer ops and falls back to reduced-rational
/// arithmetic on overflow or non-dyadic input. Negative values are
/// representable (differences of instants) but task lengths and schedule
/// instants are validated non-negative at their construction sites.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Time {
    repr: Repr,
}

/// The sealed internal representation (see the module docs for the
/// canonical-representation invariant that makes derived equality sound).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Repr {
    Dyadic(Dyadic),
    Rational(Rational),
}

/// Why an `f64` could not be snapped onto the `Time` grid.
/// Returned by [`Time::try_from_f64_snapped`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SnapError {
    /// The input was NaN or infinite.
    NonFinite,
    /// The snapped magnitude overflows the `2^-20` grid's `i64` mantissa.
    OutOfRange,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::NonFinite => write!(f, "cannot snap a non-finite f64 to Time"),
            SnapError::OutOfRange => write!(f, "f64 value overflows the Time grid"),
        }
    }
}

impl std::error::Error for SnapError {}

impl Time {
    /// Zero time.
    pub const ZERO: Time = Time {
        repr: Repr::Dyadic(Dyadic::ZERO),
    };
    /// One unit of time.
    pub const ONE: Time = Time {
        repr: Repr::Dyadic(Dyadic::ONE),
    };

    /// Creates a `Time` from a rational value, canonicalizing into the
    /// dyadic representation whenever the value lies on the dyadic grid.
    pub const fn from_rational(r: Rational) -> Self {
        match Dyadic::try_from_rational(r) {
            Some(d) => Time {
                repr: Repr::Dyadic(d),
            },
            None => Time {
                repr: Repr::Rational(r),
            },
        }
    }

    /// Creates a `Time` from an integer number of units.
    pub const fn from_int(n: i64) -> Self {
        match Dyadic::try_new(n, 0) {
            Some(d) => Time {
                repr: Repr::Dyadic(d),
            },
            // Unreachable: every i64 is a dyadic with exponent >= 0.
            None => Time::ZERO,
        }
    }

    /// Creates a `Time` equal to `mantissa · 2^exp` — the native form of
    /// the paper's category boundaries `λ·2^χ` (Definition 2).
    ///
    /// # Panics
    /// Panics if the canonical form leaves the representable dyadic range
    /// (`exp < -126`, or the odd mantissa with a positive exponent exceeds
    /// 127 bits).
    pub fn from_dyadic(mantissa: i64, exp: i32) -> Self {
        let d = Dyadic::try_new(mantissa, exp)
            .unwrap_or_else(|| panic!("Time::from_dyadic({mantissa}, {exp}) out of range"));
        Time {
            repr: Repr::Dyadic(d),
        }
    }

    /// Creates a `Time` equal to `num/den`.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn from_ratio(num: i64, den: i64) -> Self {
        Time::from_rational(Rational::new(num as i128, den as i128))
    }

    /// Creates a `Time` from a decimal written as `int_part.frac` with the
    /// fractional part expressed in thousandths, e.g. `from_millis(6, 800)`
    /// is exactly `6.8`. This is how the paper's example values (6.8, 2.8,
    /// 0.6, …) are constructed without any float rounding.
    pub fn from_millis(int_part: i64, thousandths: i64) -> Self {
        assert!(
            (0..1000).contains(&thousandths),
            "thousandths must be in [0, 1000)"
        );
        let sign = if int_part < 0 { -1 } else { 1 };
        Time::from_rational(Rational::new(
            int_part as i128 * 1000 + sign as i128 * thousandths as i128,
            1000,
        ))
    }

    /// Snaps an `f64` onto the dyadic grid with denominator `2^20`.
    ///
    /// Only used by random workload generators, which sample `f64` and then
    /// commit to the exact snapped value; scheduling itself never touches
    /// floats. Returns a typed [`SnapError`] for NaN/infinite input or
    /// grid overflow.
    pub fn try_from_f64_snapped(x: f64) -> Result<Self, SnapError> {
        if !x.is_finite() {
            return Err(SnapError::NonFinite);
        }
        const GRID: f64 = (1u64 << 20) as f64;
        let scaled = (x * GRID).round();
        if scaled.abs() >= i64::MAX as f64 {
            return Err(SnapError::OutOfRange);
        }
        Ok(Time::from_dyadic(scaled as i64, -20))
    }

    /// The value as an exact rational (converting from the dyadic fast
    /// path representation when needed; the conversion is always exact).
    #[must_use]
    pub const fn rational(&self) -> Rational {
        match self.repr {
            Repr::Dyadic(d) => d.to_rational(),
            Repr::Rational(r) => r,
        }
    }

    /// The value as a dyadic, when it lies on the representable dyadic
    /// grid (by the canonical-representation invariant this is exactly
    /// when the fast-path variant is active).
    #[must_use]
    pub const fn dyadic(&self) -> Option<Dyadic> {
        match self.repr {
            Repr::Dyadic(d) => Some(d),
            Repr::Rational(_) => None,
        }
    }

    /// Approximate `f64` value (reporting only).
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        self.rational().to_f64()
    }

    /// A strictly monotone `u64` key over the on-grid (dyadic-variant)
    /// non-negative times, for radix/calendar priority queues.
    ///
    /// **Monotonicity contract** (see `docs/time.md`): for any two times
    /// `a`, `b` with `a.dyadic_key() == Some(ka)` and `b.dyadic_key() ==
    /// Some(kb)`,
    ///
    /// * `ka < kb ⟺ a < b`, and
    /// * `ka == kb ⟺ a == b` (the key is injective on its coverage).
    ///
    /// Coverage is exactly the non-negative dyadic-grid values whose
    /// canonical mantissa fits 57 bits; everything else — negative
    /// times, rational-variant times, and extreme mantissas — returns
    /// `None`, and callers must fall back to exact [`Time`] ordering.
    /// Because the key is a pure function of the *value* (and every
    /// dyadic-representable value is stored dyadic, per the canonical
    /// invariant), two equal times always agree on `Some`-ness: a keyed
    /// and an unkeyed time are never equal.
    #[must_use]
    pub const fn dyadic_key(&self) -> Option<u64> {
        match self.repr {
            Repr::Dyadic(d) => d.radix_key(),
            Repr::Rational(_) => None,
        }
    }

    /// Returns `true` if this time is zero.
    #[must_use]
    pub const fn is_zero(&self) -> bool {
        match self.repr {
            Repr::Dyadic(d) => d.is_zero(),
            Repr::Rational(r) => r.is_zero(),
        }
    }

    /// Returns `true` if this time is strictly positive.
    #[must_use]
    pub const fn is_positive(&self) -> bool {
        match self.repr {
            Repr::Dyadic(d) => d.is_positive(),
            Repr::Rational(r) => r.is_positive(),
        }
    }

    /// Returns `true` if this time is strictly negative.
    #[must_use]
    pub const fn is_negative(&self) -> bool {
        match self.repr {
            Repr::Dyadic(d) => d.is_negative(),
            Repr::Rational(r) => r.is_negative(),
        }
    }

    /// Minimum of two times.
    #[must_use]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two times.
    #[must_use]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Multiplies by an integer (e.g. processor count when computing areas).
    #[must_use]
    pub fn mul_int(self, k: i64) -> Time {
        if let Repr::Dyadic(d) = self.repr {
            if let Some(p) = d.checked_mul_int(k) {
                return Time {
                    repr: Repr::Dyadic(p),
                };
            }
        }
        Time::from_rational(
            self.rational()
                .checked_mul_int(k as i128)
                .expect("Time integer-multiplication overflow"),
        )
    }

    /// Divides by a positive integer (e.g. normalizing an area by `P`).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn div_int(self, k: i64) -> Time {
        if k > 0 && (k as u64).is_power_of_two() {
            if let Repr::Dyadic(d) = self.repr {
                if let Some(q) = d.checked_div_pow2(k.trailing_zeros()) {
                    return Time {
                        repr: Repr::Dyadic(q),
                    };
                }
            }
        }
        Time::from_rational(
            self.rational()
                .checked_div(&Rational::from_int(k))
                .expect("Time integer-division overflow or division by zero"),
        )
    }

    /// Checked addition with a typed error: `Err` when the exact sum's
    /// reduced form exceeds `i128` (see [`crate::OverflowError`]).
    pub fn try_add(self, rhs: Time) -> Result<Time, crate::OverflowError> {
        if let (Repr::Dyadic(a), Repr::Dyadic(b)) = (self.repr, rhs.repr) {
            if let Some(s) = a.checked_add(b) {
                return Ok(Time {
                    repr: Repr::Dyadic(s),
                });
            }
        }
        self.rational()
            .try_add(&rhs.rational())
            .map(Time::from_rational)
    }

    /// Exact ratio of two times, as a `Rational`.
    ///
    /// # Panics
    /// Panics if `other` is zero.
    #[must_use]
    pub fn ratio(self, other: Time) -> Rational {
        self.rational()
            .checked_div(&other.rational())
            .expect("Time ratio overflow or division by zero")
    }
}

impl Default for Time {
    fn default() -> Self {
        Time::ZERO
    }
}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (&self.repr, &other.repr) {
            (Repr::Dyadic(a), Repr::Dyadic(b)) => a.cmp(b),
            (Repr::Rational(a), Repr::Rational(b)) => a.cmp(b),
            (Repr::Dyadic(a), Repr::Rational(b)) => cmp_dyadic_rational(a, b),
            (Repr::Rational(a), Repr::Dyadic(b)) => cmp_dyadic_rational(b, a).reverse(),
        }
    }
}

/// Exact mixed-variant comparison with a cheap short-circuit: signs
/// first, then the magnitude-exponent bounds (the rational's magnitude
/// is pinned to a 2-wide window by its numerator/denominator bit
/// lengths), and only when the window overlaps the dyadic's exact
/// magnitude does it promote to the full cross-multiplying rational
/// compare. Mixed pairs are never *equal* (canonical invariant), but
/// the promotion handles that case exactly anyway.
fn cmp_dyadic_rational(d: &Dyadic, r: &Rational) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let ds = d.mantissa().signum() as i32;
    let rs = if r.is_positive() {
        1
    } else if r.is_negative() {
        -1
    } else {
        0
    };
    if ds != rs {
        return ds.cmp(&rs);
    }
    if ds == 0 {
        return Ordering::Equal;
    }
    // |numer| ∈ [2^(bn-1), 2^bn) and denom ∈ [2^(bd-1), 2^bd) bound
    // |r| to (2^(bn-bd-1), 2^(bn-bd+1)): its magnitude exponent is
    // `bn - bd` or `bn - bd + 1`.
    let bn = 128 - r.numer().unsigned_abs().leading_zeros() as i32;
    let bd = 128 - r.denom().unsigned_abs().leading_zeros() as i32;
    let low = bn - bd;
    let md = d.magnitude();
    let abs_order = if md < low {
        // |d| < 2^md <= 2^(low-1)·2 … precisely: md <= low-1 gives
        // |d| < 2^(low-1) < |r|.
        Some(Ordering::Less)
    } else if md > low + 1 {
        // md >= low+2 gives |d| >= 2^(low+1) > |r|.
        Some(Ordering::Greater)
    } else {
        None
    };
    match abs_order {
        Some(o) if ds > 0 => o,
        Some(o) => o.reverse(),
        None => d.to_rational().cmp(r),
    }
}

impl Serialize for Time {
    fn serialize(&self) -> Value {
        // Wire format is the rational `{num, den}` object regardless of
        // the active variant, so journals/baselines stay byte-identical.
        self.rational().serialize()
    }
}

impl Deserialize for Time {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        Rational::deserialize(value).map(Time::from_rational)
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        if let (Repr::Dyadic(a), Repr::Dyadic(b)) = (self.repr, rhs.repr) {
            if let Some(s) = a.checked_add(b) {
                return Time {
                    repr: Repr::Dyadic(s),
                };
            }
        }
        Time::from_rational(self.rational() + rhs.rational())
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        if let (Repr::Dyadic(a), Repr::Dyadic(b)) = (self.repr, rhs.repr) {
            if let Some(s) = a.checked_sub(b) {
                return Time {
                    repr: Repr::Dyadic(s),
                };
            }
        }
        Time::from_rational(self.rational() - rhs.rational())
    }
}

impl Neg for Time {
    type Output = Time;
    fn neg(self) -> Time {
        match self.repr {
            Repr::Dyadic(d) => Time {
                repr: Repr::Dyadic(d.neg()),
            },
            // Negation preserves (non-)dyadic-representability, so the
            // rational variant stays rational.
            Repr::Rational(r) => Time {
                repr: Repr::Rational(-r),
            },
        }
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        *self = *self - rhs;
    }
}

impl Mul<Rational> for Time {
    type Output = Time;
    fn mul(self, rhs: Rational) -> Time {
        Time::from_rational(self.rational() * rhs)
    }
}

impl Div<Time> for Time {
    type Output = Rational;
    fn div(self, rhs: Time) -> Rational {
        self.ratio(rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |acc, t| acc + t)
    }
}

impl From<i64> for Time {
    fn from(n: i64) -> Self {
        Time::from_int(n)
    }
}

impl From<Rational> for Time {
    fn from(r: Rational) -> Self {
        Time::from_rational(r)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.rational())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Prefer an exact decimal rendering when the denominator divides a
        // power of ten, else fall back to the fraction. Rendering is done
        // on the rational image so both variants print identically.
        let r = self.rational();
        let den = r.denom();
        if den == 1 {
            return write!(f, "{}", r.numer());
        }
        let (mut d, mut twos, mut fives) = (den, 0u32, 0u32);
        while d % 2 == 0 {
            d /= 2;
            twos += 1;
        }
        while d % 5 == 0 {
            d /= 5;
            fives += 1;
        }
        let digits = twos.max(fives);
        if d == 1 && digits <= 30 {
            // value = num/den with den | 10^digits: scale the numerator to
            // an integer count of 10^-digits units (exact in i128).
            let pow10 = 10i128.pow(digits);
            let scaled = r.numer().checked_mul(pow10 / den);
            if let Some(scaled) = scaled {
                let sign = if scaled < 0 { "-" } else { "" };
                let mag = scaled.unsigned_abs();
                let int_part = mag / 10u128.pow(digits);
                let frac = mag % 10u128.pow(digits);
                let frac_str = format!("{frac:0width$}", width = digits as usize);
                let frac_str = frac_str.trim_end_matches('0');
                return if frac_str.is_empty() {
                    write!(f, "{sign}{int_part}")
                } else {
                    write!(f, "{sign}{int_part}.{frac_str}")
                };
            }
        }
        write!(f, "{r}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        assert_eq!(Time::from_millis(6, 800), Time::from_ratio(34, 5));
        assert_eq!(Time::from_millis(0, 600), Time::from_ratio(3, 5));
        assert_eq!(Time::from_int(3), Time::from_ratio(6, 2));
        assert_eq!(Time::from_millis(-1, 500), Time::from_ratio(-3, 2));
    }

    #[test]
    fn canonical_variant_invariant() {
        // Dyadic-representable values land in the dyadic variant no
        // matter which constructor produced them.
        assert!(Time::from_ratio(1, 2).dyadic().is_some());
        assert!(Time::from_rational(Rational::new(3, 8)).dyadic().is_some());
        assert!(Time::from_millis(1, 500).dyadic().is_some());
        assert!(Time::from_int(7).dyadic().is_some());
        // Non-dyadic values stay rational.
        assert!(Time::from_ratio(1, 3).dyadic().is_none());
        assert!(Time::from_millis(6, 800).dyadic().is_none());
        // Equality and hashing agree across construction routes.
        assert_eq!(Time::from_dyadic(3, -1), Time::from_ratio(3, 2));
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |t: Time| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(Time::from_dyadic(3, -1)), hash(Time::from_ratio(3, 2)));
    }

    #[test]
    fn from_dyadic_canonicalizes() {
        assert_eq!(Time::from_dyadic(6, -1), Time::from_int(3));
        assert_eq!(Time::from_dyadic(0, 40), Time::ZERO);
        let d = Time::from_dyadic(5, -3).dyadic().unwrap();
        assert_eq!((d.mantissa(), d.exponent()), (5, -3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_dyadic_rejects_out_of_range() {
        let _ = Time::from_dyadic(1, -127);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_millis(2, 800);
        let b = Time::from_int(2);
        assert_eq!(a + b, Time::from_millis(4, 800));
        assert_eq!(a - b, Time::from_millis(0, 800));
        assert_eq!(b.mul_int(3), Time::from_int(6));
        assert_eq!(Time::from_int(7).div_int(2), Time::from_ratio(7, 2));
    }

    #[test]
    fn mixed_representation_arithmetic() {
        let dy = Time::from_ratio(1, 4); // dyadic
        let ra = Time::from_ratio(1, 3); // rational
        assert_eq!(dy + ra, Time::from_ratio(7, 12));
        assert_eq!(ra + dy, Time::from_ratio(7, 12));
        // A rational-variant computation that lands back on the grid
        // re-canonicalizes into the dyadic variant.
        let back = (dy + ra) - ra;
        assert_eq!(back, dy);
        assert!(back.dyadic().is_some());
    }

    #[test]
    fn div_int_pow2_fast_path_matches_rational() {
        for k in [1i64, 2, 4, 8, 1024] {
            let t = Time::from_ratio(13, 4);
            assert_eq!(
                t.div_int(k),
                Time::from_rational(t.rational().checked_div(&Rational::from_int(k)).unwrap()),
                "k={k}"
            );
        }
        // Non-power-of-two and negative divisors use the rational path.
        assert_eq!(Time::from_int(9).div_int(3), Time::from_int(3));
        assert_eq!(Time::from_int(4).div_int(-2), Time::from_int(-2));
    }

    #[test]
    fn ratio_is_exact() {
        let r = Time::from_millis(6, 800).ratio(Time::from_int(2));
        assert_eq!(r, Rational::new(17, 5));
    }

    #[test]
    fn f64_snapping_roundtrip_on_grid() {
        let t = Time::try_from_f64_snapped(0.5).unwrap();
        assert_eq!(t, Time::from_ratio(1, 2));
        let u = Time::try_from_f64_snapped(3.25).unwrap();
        assert_eq!(u, Time::from_ratio(13, 4));
    }

    #[test]
    fn f64_snapping_reports_typed_errors() {
        assert_eq!(
            Time::try_from_f64_snapped(f64::NAN),
            Err(SnapError::NonFinite)
        );
        assert_eq!(
            Time::try_from_f64_snapped(f64::INFINITY),
            Err(SnapError::NonFinite)
        );
        assert_eq!(Time::try_from_f64_snapped(1e30), Err(SnapError::OutOfRange));
        let msg = Time::try_from_f64_snapped(f64::NAN)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("non-finite"), "{msg}");
    }

    #[test]
    fn sum_iterator() {
        let total: Time = [Time::from_int(1), Time::from_millis(0, 500)]
            .into_iter()
            .sum();
        assert_eq!(total, Time::from_ratio(3, 2));
    }

    #[test]
    fn display_decimal_when_exact() {
        assert_eq!(format!("{}", Time::from_millis(6, 800)), "6.8");
        assert_eq!(format!("{}", Time::from_int(15)), "15");
        assert_eq!(format!("{}", Time::from_ratio(1, 3)), "1/3");
        assert_eq!(format!("{}", Time::from_ratio(1, 4)), "0.25");
    }

    #[test]
    fn serialization_is_rational_shaped_for_both_variants() {
        let dy = Time::from_ratio(3, 4);
        let ra = Time::from_ratio(1, 3);
        assert!(dy.dyadic().is_some());
        assert!(ra.dyadic().is_none());
        assert_eq!(dy.serialize(), dy.rational().serialize());
        assert_eq!(ra.serialize(), ra.rational().serialize());
        for t in [dy, ra, Time::ZERO, Time::from_int(-7)] {
            let back = Time::deserialize(&t.serialize()).unwrap();
            assert_eq!(back, t);
            assert_eq!(back.dyadic().is_some(), t.dyadic().is_some());
        }
    }

    #[test]
    fn ordering() {
        assert!(Time::from_millis(6, 800) > Time::from_int(6));
        assert!(Time::ZERO < Time::ONE);
        assert!(-Time::ONE < Time::ZERO);
        // Mixed-variant comparisons are exact.
        assert!(Time::from_ratio(1, 3) < Time::from_ratio(1, 2));
        assert!(Time::from_ratio(2, 3) > Time::from_ratio(1, 2));
    }

    #[test]
    #[should_panic(expected = "thousandths")]
    fn from_millis_validates_range() {
        let _ = Time::from_millis(1, 1000);
    }

    #[test]
    fn dyadic_key_monotone_on_grid() {
        let on_grid = [
            Time::ZERO,
            Time::from_ratio(1, 1 << 20),
            Time::from_ratio(3, 8),
            Time::from_ratio(1, 2),
            Time::ONE,
            Time::from_millis(1, 500),
            Time::from_int(7),
            Time::from_dyadic(1, 60),
            Time::from_dyadic((1 << 56) | 1, -20),
        ];
        for a in on_grid {
            for b in on_grid {
                let (ka, kb) = (a.dyadic_key().unwrap(), b.dyadic_key().unwrap());
                assert_eq!(ka.cmp(&kb), a.cmp(&b), "key order for {a:?} vs {b:?}");
                assert_eq!(ka == kb, a == b, "key injectivity for {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn dyadic_key_rejects_off_grid_and_negative() {
        // Rational-variant times have no key.
        assert_eq!(Time::from_ratio(1, 3).dyadic_key(), None);
        assert_eq!(Time::from_millis(6, 800).dyadic_key(), None);
        // Negative times have no key (engine timestamps are
        // non-negative; the overflow heap covers the rest).
        assert_eq!((-Time::ONE).dyadic_key(), None);
        // Oversized mantissas fall back too.
        assert_eq!(Time::from_dyadic((1 << 57) | 1, -20).dyadic_key(), None);
        assert_eq!(Time::ZERO.dyadic_key(), Some(0));
    }

    #[test]
    fn mixed_variant_cmp_matches_exact_promotion() {
        // Pairs chosen to land in every branch of the fast path: sign
        // short-circuit, both magnitude-window short-circuits, and the
        // overlapping-window promotion.
        let dyadics = [
            Time::from_ratio(1, 1024),
            Time::from_ratio(1, 2),
            Time::ONE,
            Time::from_ratio(3, 2),
            Time::from_int(1000),
            -Time::from_ratio(1, 2),
            -Time::from_int(4),
            Time::ZERO,
        ];
        let rationals = [
            Time::from_ratio(1, 3),
            Time::from_ratio(2, 3),
            Time::from_ratio(5, 7),
            Time::from_millis(6, 800),
            Time::from_ratio(999, 1000),
            Time::from_ratio(1001, 1000),
            -Time::from_ratio(1, 3),
            -Time::from_millis(6, 800),
        ];
        for d in dyadics {
            for r in rationals {
                assert!(r.dyadic().is_none(), "{r:?} must be rational-variant");
                let exact = d.rational().cmp(&r.rational());
                assert_eq!(d.cmp(&r), exact, "{d:?} vs {r:?}");
                assert_eq!(r.cmp(&d), exact.reverse(), "{r:?} vs {d:?}");
            }
        }
    }
}
