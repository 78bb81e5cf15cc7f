//! Exact rational numbers over `i128` with automatic reduction.
//!
//! The scheduling analysis in the CatBatch paper hinges on *strict*
//! inequalities between earliest start/finish times and dyadic grid points
//! `λ·2^χ` (Definition 2 of the paper). Floating point cannot decide those
//! inequalities reliably when values land exactly on grid points — which
//! happens for essentially every task of the paper's worked examples — so
//! the whole workspace computes on exact rationals.
//!
//! All arithmetic is checked: an overflow of the `i128` numerator or
//! denominator panics with a descriptive message rather than silently
//! wrapping. With reduced fractions and the workloads in this repository
//! (dyadic or decimal grids), overflow would require astronomically sized
//! instances.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num/den` with `den > 0` and `gcd(num, den) = 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rational {
    num: i128,
    den: i128,
}

/// Greatest common divisor of two non-negative integers (Euclid).
///
/// Operates on `u128` so that `i128::MIN.unsigned_abs()` (= `2^127`,
/// not representable as `i128`) is handled without wraparound.
fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Signed GCD helper for the common case where both magnitudes fit `i128`.
fn gcd_i(a: i128, b: i128) -> i128 {
    gcd(a.unsigned_abs(), b.unsigned_abs()) as i128
}

/// A checked rational operation overflowed: the exact result exists
/// mathematically but its reduced numerator or denominator does not fit
/// in `i128`. Returned by the `try_*` arithmetic on [`Rational`] (and
/// re-exported through `rigid_time`); the operator impls (`+`, `*`, …)
/// panic with this error's message instead of silently wrapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OverflowError {
    /// The operation that overflowed (`"add"`, `"mul"`, …).
    pub op: &'static str,
}

impl fmt::Display for OverflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational {} overflow: result exceeds i128", self.op)
    }
}

impl std::error::Error for OverflowError {}

/// Correctly rounded `n / d` as an `f64`, for nonzero `n, d`.
///
/// Long-divides the exact integers into a ≥55-bit quotient mantissa
/// (53 target bits plus guard/round) with the remainder folded into a
/// sticky bit, then rounds to nearest-even exactly once. All `u128`
/// ratios lie in `[2^-127, 2^127]`, safely inside normal `f64` range,
/// so the final power-of-two scaling is exact.
fn div_round_nearest(n: u128, d: u128) -> f64 {
    let mut mant = n / d;
    let mut rem = n % d;
    if mant >> 54 != 0 {
        // The integer quotient already carries ≥55 bits; any nonzero
        // remainder only matters as a sticky bit.
        return round_mantissa_to_f64(mant, rem != 0, 0);
    }
    // Pull fractional quotient bits until the mantissa has 55 bits.
    // `rem < d <= 2^127` keeps `rem << 1` inside u128; the loop runs at
    // most ~182 times (127 leading-zero bits + 55 mantissa bits).
    let mut exp = 0i32;
    while mant >> 54 == 0 {
        mant <<= 1;
        rem <<= 1;
        exp -= 1;
        if rem >= d {
            rem -= d;
            mant |= 1;
        }
    }
    round_mantissa_to_f64(mant, rem != 0, exp)
}

/// Rounds `mant * 2^exp` (with `sticky` recording discarded low bits)
/// to the nearest `f64`, ties to even. `mant` must be nonzero and the
/// result must lie in normal `f64` range.
fn round_mantissa_to_f64(mant: u128, sticky: bool, exp: i32) -> f64 {
    let bits = 128 - mant.leading_zeros() as i32;
    let excess = bits - 53;
    if excess <= 0 {
        // Already exact in 53 bits (sticky can only be set when the
        // mantissa is full-width, so it is false here).
        return mant as f64 * 2f64.powi(exp);
    }
    let kept = (mant >> excess) as u64;
    let dropped = mant & ((1u128 << excess) - 1);
    let half = 1u128 << (excess - 1);
    let round_up = match dropped.cmp(&half) {
        Ordering::Greater => true,
        Ordering::Less => false,
        Ordering::Equal => sticky || (kept & 1 == 1),
    };
    // `kept + 1` may carry to 2^53, still exactly representable.
    (kept + round_up as u64) as f64 * 2f64.powi(exp + excess)
}

/// Full 128×128→256-bit unsigned multiplication, as `(hi, lo)` limbs.
fn widemul(a: u128, b: u128) -> (u128, u128) {
    const MASK: u128 = (1u128 << 64) - 1;
    let (a0, a1) = (a & MASK, a >> 64);
    let (b0, b1) = (b & MASK, b >> 64);
    let ll = a0 * b0;
    let lh = a0 * b1;
    let hl = a1 * b0;
    let mid = (ll >> 64) + (lh & MASK) + (hl & MASK);
    let lo = (mid << 64) | (ll & MASK);
    let hi = a1 * b1 + (lh >> 64) + (hl >> 64) + (mid >> 64);
    (hi, lo)
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a rational from a numerator and denominator.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        match Rational::try_new(num, den) {
            Ok(r) => r,
            Err(e) => {
                assert!(den != 0, "Rational with zero denominator");
                panic!("{e}");
            }
        }
    }

    /// Checked constructor: reduces `num/den` and normalizes the sign,
    /// returning a typed [`OverflowError`] when the reduced value cannot
    /// be represented (only possible at the extreme `i128::MIN` edge,
    /// e.g. `den = i128::MIN` with an odd numerator).
    ///
    /// # Panics
    /// Panics if `den == 0` (that is a domain error, not an overflow).
    pub fn try_new(num: i128, den: i128) -> Result<Self, OverflowError> {
        assert!(den != 0, "Rational with zero denominator");
        let negative = (num < 0) != (den < 0);
        // Reduce on unsigned magnitudes so i128::MIN never wraps.
        let g = gcd(num.unsigned_abs(), den.unsigned_abs());
        let rn = num.unsigned_abs() / g;
        let rd = den.unsigned_abs() / g;
        let err = OverflowError { op: "normalize" };
        let den = i128::try_from(rd).map_err(|_| err)?;
        let num = if negative {
            // -2^127 is representable; 2^127 is not.
            if rn > (1u128 << 127) {
                return Err(err);
            }
            (rn as i128).wrapping_neg()
        } else {
            i128::try_from(rn).map_err(|_| err)?
        };
        Ok(Rational { num, den })
    }

    /// Crate-internal const constructor from parts that are *already*
    /// reduced and sign-normalized (`den > 0`, `gcd(num, den) = 1`). Used
    /// by the dyadic fast path, whose canonical form guarantees both.
    pub(crate) const fn from_reduced_parts(num: i128, den: i128) -> Self {
        debug_assert!(den > 0);
        Rational { num, den }
    }

    /// Creates a rational from an integer.
    pub const fn from_int(n: i64) -> Self {
        Rational {
            num: n as i128,
            den: 1,
        }
    }

    /// The reduced numerator (sign-carrying).
    pub const fn numer(&self) -> i128 {
        self.num
    }

    /// The reduced denominator (always positive).
    pub const fn denom(&self) -> i128 {
        self.den
    }

    /// Returns `true` if this rational is zero.
    pub const fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` if this rational is strictly positive.
    pub const fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Returns `true` if this rational is strictly negative.
    pub const fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// The sign of the rational: -1, 0 or 1.
    pub const fn signum(&self) -> i32 {
        if self.num > 0 {
            1
        } else if self.num < 0 {
            -1
        } else {
            0
        }
    }

    /// Absolute value.
    ///
    /// # Panics
    /// Panics (instead of wrapping) if the numerator is `i128::MIN`.
    pub fn abs(&self) -> Self {
        Rational {
            num: self
                .num
                .checked_abs()
                .expect("Rational abs overflow: |numerator| exceeds i128"),
            den: self.den,
        }
    }

    /// Largest integer `k` with `k <= self` (Euclidean division — exact
    /// for every representable value, including `i128::MIN` numerators).
    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer `k` with `k >= self`.
    pub fn ceil(&self) -> i128 {
        let q = self.num.div_euclid(self.den);
        if self.num.rem_euclid(self.den) == 0 {
            q
        } else {
            q + 1
        }
    }

    /// Correctly rounded conversion to `f64` (for reporting only; never
    /// used in scheduling decisions).
    ///
    /// Casting `num` and `den` to `f64` independently rounds each to 53
    /// bits *before* the division, so large reduced rationals (the kind
    /// `worst_case_hunt` climbing produces) could be off by up to a few
    /// ulps in journals and bench JSON. Instead we long-divide the exact
    /// integers into a 55-bit quotient plus a sticky bit, then round to
    /// nearest-even once. Every `i128/i128` ratio lies well inside the
    /// normal `f64` range (`2^-127 ..= 2^127`), so no overflow/underflow
    /// handling is needed and the final power-of-two scaling is exact.
    pub fn to_f64(&self) -> f64 {
        if self.num == 0 {
            return 0.0;
        }
        let negative = self.num < 0;
        let n = self.num.unsigned_abs();
        let d = self.den as u128; // den > 0 invariant
        let value = div_round_nearest(n, d);
        if negative {
            -value
        } else {
            value
        }
    }

    /// Checked addition, returning `None` on `i128` overflow. The result
    /// is always gcd-normalized (as is every `Rational`).
    pub fn checked_add(&self, other: &Rational) -> Option<Rational> {
        // a/b + c/d = (a*(l/b) + c*(l/d)) / l with l = lcm(b, d).
        let g = gcd_i(self.den, other.den);
        let lhs_scale = other.den / g;
        let rhs_scale = self.den / g;
        let num = self
            .num
            .checked_mul(lhs_scale)?
            .checked_add(other.num.checked_mul(rhs_scale)?)?;
        let den = self.den.checked_mul(lhs_scale)?;
        Rational::try_new(num, den).ok()
    }

    /// Checked subtraction, returning `None` on `i128` overflow.
    pub fn checked_sub(&self, other: &Rational) -> Option<Rational> {
        self.checked_add(&-*other)
    }

    /// Checked multiplication, returning `None` on `i128` overflow.
    pub fn checked_mul(&self, other: &Rational) -> Option<Rational> {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd_i(self.num, other.den);
        let g2 = gcd_i(other.num, self.den);
        let num = (self.num / g1).checked_mul(other.num / g2)?;
        let den = (self.den / g2).checked_mul(other.den / g1)?;
        Rational::try_new(num, den).ok()
    }

    /// Checked division, returning `None` on overflow or division by zero.
    pub fn checked_div(&self, other: &Rational) -> Option<Rational> {
        if other.is_zero() {
            return None;
        }
        let recip = Rational::try_new(other.den, other.num).ok()?;
        self.checked_mul(&recip)
    }

    /// Multiplies by a plain integer (checked).
    pub fn checked_mul_int(&self, k: i128) -> Option<Rational> {
        let g = gcd_i(k, self.den);
        let num = self.num.checked_mul(k / g)?;
        Rational::try_new(num, self.den / g).ok()
    }

    /// Addition with a typed [`OverflowError`] instead of `None`.
    pub fn try_add(&self, other: &Rational) -> Result<Rational, OverflowError> {
        self.checked_add(other).ok_or(OverflowError { op: "add" })
    }

    /// Subtraction with a typed [`OverflowError`] instead of `None`.
    pub fn try_sub(&self, other: &Rational) -> Result<Rational, OverflowError> {
        self.checked_sub(other).ok_or(OverflowError { op: "sub" })
    }

    /// Multiplication with a typed [`OverflowError`] instead of `None`.
    pub fn try_mul(&self, other: &Rational) -> Result<Rational, OverflowError> {
        self.checked_mul(other).ok_or(OverflowError { op: "mul" })
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// `min` of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// `max` of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b (b, d > 0). Equal denominators (the
        // overwhelmingly common case on integer grids) compare directly.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // Signs decide without any multiplication.
        let (ls, rs) = (self.signum(), other.signum());
        if ls != rs {
            return ls.cmp(&rs);
        }
        // Cross-reduce, then try i128 cross-multiplication; fall back to
        // exact 256-bit magnitude comparison instead of panicking —
        // comparison is total and never overflows.
        let g_den = gcd_i(self.den, other.den);
        let lhs_scale = other.den / g_den;
        let rhs_scale = self.den / g_den;
        match (
            self.num.checked_mul(lhs_scale),
            other.num.checked_mul(rhs_scale),
        ) {
            (Some(lhs), Some(rhs)) => lhs.cmp(&rhs),
            _ => {
                let lhs = widemul(self.num.unsigned_abs(), lhs_scale.unsigned_abs());
                let rhs = widemul(other.num.unsigned_abs(), rhs_scale.unsigned_abs());
                // Both sides share the sign `ls` here (signs were equal
                // and neither is zero, else checked_mul succeeded).
                if ls >= 0 {
                    lhs.cmp(&rhs)
                } else {
                    rhs.cmp(&lhs)
                }
            }
        }
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $checked:ident, $msg:literal) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$checked(&rhs).expect($msg)
            }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                self.$checked(rhs).expect($msg)
            }
        }
    };
}

impl_binop!(Add, add, checked_add, "Rational addition overflow");
impl_binop!(Sub, sub, checked_sub, "Rational subtraction overflow");
impl_binop!(Mul, mul, checked_mul, "Rational multiplication overflow");
impl_binop!(
    Div,
    div,
    checked_div,
    "Rational division overflow or by zero"
);

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}
impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}
impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}
impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Rational) {
        *self = *self / rhs;
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: self
                .num
                .checked_neg()
                .expect("Rational negation overflow: -i128::MIN exceeds i128"),
            den: self.den,
        }
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(n)
    }
}

impl From<i32> for Rational {
    fn from(n: i32) -> Self {
        Rational::from_int(n as i64)
    }
}

impl From<u32> for Rational {
    fn from(n: u32) -> Self {
        Rational::from_int(n as i64)
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn reduction_and_sign_normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, 4), r(1, -2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(6, -4).numer(), -3);
        assert_eq!(r(6, -4).denom(), 2);
        assert_eq!(r(0, -7), Rational::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(-r(3, 5), r(-3, 5));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 7) == Rational::ONE);
        assert!(r(34, 5) > r(27, 4)); // 6.8 > 6.75
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(r(7, 2).floor(), 3);
        assert_eq!(r(7, 2).ceil(), 4);
        assert_eq!(r(-7, 2).floor(), -4);
        assert_eq!(r(-7, 2).ceil(), -3);
        assert_eq!(r(6, 2).floor(), 3);
        assert_eq!(r(6, 2).ceil(), 3);
        assert_eq!(Rational::ZERO.floor(), 0);
    }

    #[test]
    fn checked_ops_catch_overflow() {
        let big = Rational::new(i128::MAX, 1);
        assert!(big.checked_add(&Rational::ONE).is_none());
        assert!(big.checked_mul(&Rational::from_int(2)).is_none());
        assert!(Rational::ONE.checked_div(&Rational::ZERO).is_none());
    }

    #[test]
    fn mul_int_cross_reduces() {
        // 1/6 * 4 = 2/3 without overflowing intermediates.
        assert_eq!(r(1, 6).checked_mul_int(4).unwrap(), r(2, 3));
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", r(5, 1)), "5");
        assert_eq!(format!("{}", r(34, 5)), "34/5");
        assert_eq!(format!("{:?}", r(-1, 2)), "-1/2");
    }

    #[test]
    fn recip() {
        assert_eq!(r(3, 4).recip(), r(4, 3));
        assert_eq!(r(-3, 4).recip(), r(-4, 3));
    }

    #[test]
    fn to_f64_close() {
        assert!((r(34, 5).to_f64() - 6.8).abs() < 1e-12);
    }

    /// Asserts `rat.to_f64()` is the correctly rounded double: the exact
    /// error is at most half an ulp, with ties only on even mantissas.
    /// Callers must keep |value| and the reduced denominator moderate
    /// (the exact difference below is computed in `i128` rationals).
    fn assert_correctly_rounded(rat: Rational) {
        let f = rat.to_f64();
        assert!(f.is_finite(), "{rat:?} -> {f}");
        if rat == Rational::ZERO {
            assert_eq!(f, 0.0);
            return;
        }
        assert_eq!(f < 0.0, rat < Rational::ZERO, "{rat:?} -> {f} wrong sign");
        // Decompose |f| exactly as mant * 2^exp, mant in [2^52, 2^53).
        let bits = f.abs().to_bits();
        let mant = ((bits & ((1u64 << 52) - 1)) | (1u64 << 52)) as i128;
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023 - 52;
        let f_rat = if exp >= 0 {
            Rational::new(mant << exp, 1)
        } else {
            Rational::new(mant, 1i128 << (-exp))
        };
        let v = rat.abs();
        let half_ulp = if exp >= 1 {
            Rational::new(1i128 << (exp - 1), 1)
        } else {
            Rational::new(1, 1i128 << (1 - exp))
        };
        let diff = if f_rat >= v { f_rat - v } else { v - f_rat };
        assert!(
            diff <= half_ulp,
            "{rat:?} -> {f} off by more than half an ulp"
        );
        if diff == half_ulp {
            assert_eq!(mant & 1, 0, "{rat:?} -> {f} tie broken to odd mantissa");
        }
    }

    /// Regression: the old `num as f64 / den as f64` rounded both casts
    /// independently before the division, drifting large reduced
    /// rationals (the kind `worst_case_hunt` climbing produces) by an
    /// ulp. Expected values are the correctly rounded doubles.
    #[test]
    fn to_f64_is_correctly_rounded_on_hunt_sized_ratios() {
        let a = r(5855543267441242937, 93609460865670841);
        assert_eq!(a.to_f64(), 62.55290024417427);
        assert_ne!(a.numer() as f64 / a.denom() as f64, a.to_f64());
        let b = r(14904083994765921387896827, 1040025956730605916151403);
        assert_eq!(b.to_f64(), 14.330492328881817);
        assert_ne!(b.numer() as f64 / b.denom() as f64, b.to_f64());
        assert_correctly_rounded(a);
        assert_correctly_rounded(-a);
    }

    /// Numerators just past `2^53` are where the independent-cast error
    /// first bites: `12636956566307343 as f64` already rounds, and the
    /// old code then divided the rounded value.
    #[test]
    fn to_f64_near_2_pow_53() {
        let v = r(12636956566307343, 10);
        assert_eq!(v.to_f64(), 1263695656630734.2);
        assert_ne!(v.to_f64(), 12636956566307343i128 as f64 / 10.0);
        // Exactly representable neighbours stay exact.
        assert_eq!(r(1i128 << 53, 1).to_f64(), 9007199254740992.0);
        assert_eq!(r((1i128 << 53) + 2, 1).to_f64(), 9007199254740994.0);
        // 2^53 + 1 is a perfect tie: round to even mantissa (2^53).
        assert_eq!(r((1i128 << 53) + 1, 1).to_f64(), 9007199254740992.0);
        assert_correctly_rounded(v);
        assert_correctly_rounded(r((1i128 << 53) + 1, 3));
    }

    /// Extreme exponents: power-of-two scaling must commute with the
    /// rounding (no subnormals are reachable from `i128` ratios).
    #[test]
    fn to_f64_extreme_exponents() {
        // 1/(3·2^100) = round(1/3) · 2^-100 — scaling is exact.
        let tiny = r(1, 3 * (1i128 << 100));
        assert_eq!(tiny.to_f64(), (1.0f64 / 3.0) * 2f64.powi(-100));
        // 3·2^120/7 = round(3/7) · 2^120.
        let huge = r(3 * (1i128 << 120), 7);
        assert_eq!(huge.to_f64(), (3.0f64 / 7.0) * 2f64.powi(120));
        // The extremes of the representable range stay finite and exact.
        assert_eq!(r(1i128 << 126, 1).to_f64(), 2f64.powi(126));
        assert_eq!(r(1, 1i128 << 126).to_f64(), 2f64.powi(-126));
        assert_eq!(r(i128::MIN, 1).to_f64(), -(2f64.powi(127)));
    }

    /// Property sweep: structured pseudo-random ratios across magnitudes
    /// are all correctly rounded (exact half-ulp check via rationals).
    #[test]
    fn to_f64_half_ulp_property() {
        let mut x: u128 = 0x9e3779b97f4a7c15;
        let mut next = move || {
            // xorshift-ish mixer, deterministic.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..2000 {
            // Keep the ratio within ~2^±11 and denominators under 2^60
            // so the helper's exact difference arithmetic fits i128.
            let nbits = (next() % 21 + 30) as u32; // 30..=50
            let delta = (next() % 21) as i64 - 10; // -10..=10
            let dbits = (nbits as i64 + delta).clamp(2, 60) as u32;
            let n = ((next() >> (128 - nbits)) | (1u128 << (nbits - 1))) as i128;
            let d = ((next() >> (128 - dbits)) | (1u128 << (dbits - 1))) as i128;
            assert_correctly_rounded(r(n, d));
            assert_correctly_rounded(r(-n, d));
        }
    }

    #[test]
    fn cmp_never_overflows() {
        // Cross-multiplication of these exceeds i128; the old comparison
        // panicked here even though both values are representable.
        let a = r(i128::MAX, 3);
        let b = r(i128::MAX - 2, 3); // den stays 3 after reduction
        let c = r(i128::MAX, 7);
        assert!(a > b);
        assert!(a > c);
        assert!(c < b);
        // Negative side mirrors.
        assert!(-a < -b);
        assert!(-c > -b);
        // Mixed signs decide by sign alone.
        assert!(-a < c);
        // Self-comparison is equal.
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn i128_min_edges_do_not_wrap() {
        // unsigned_abs of MIN used to wrap through `as i128` in gcd.
        let m = r(i128::MIN, 2);
        assert_eq!(m.numer(), i128::MIN / 2);
        assert_eq!(m.denom(), 1);
        // Even-denominator MIN reduces fine.
        let half_min = r(i128::MIN, 4);
        assert_eq!(half_min.numer(), i128::MIN / 4);
        // MIN numerator with odd denominator stays MIN (no reduction).
        let raw = r(i128::MIN, 3);
        assert_eq!(raw.numer(), i128::MIN);
        assert_eq!(raw.denom(), 3);
        assert!(raw < Rational::ZERO);
        assert_eq!(raw.floor(), i128::MIN / 3 - 1);
        assert_eq!(raw.ceil(), i128::MIN / 3);
        // A negative-denominator MIN that cannot be sign-normalized is a
        // typed error, not a silent wrap.
        assert_eq!(
            Rational::try_new(3, i128::MIN),
            Err(OverflowError { op: "normalize" })
        );
        // ... but an even numerator reduces into range.
        assert_eq!(Rational::try_new(2, i128::MIN), Ok(r(-1, 1i128 << 126)));
    }

    #[test]
    fn try_ops_report_typed_overflow() {
        let big = Rational::new(i128::MAX, 1);
        assert_eq!(
            big.try_add(&Rational::ONE),
            Err(OverflowError { op: "add" })
        );
        assert_eq!(
            big.try_mul(&Rational::from_int(2)),
            Err(OverflowError { op: "mul" })
        );
        assert_eq!(
            big.try_sub(&-Rational::ONE),
            Err(OverflowError { op: "sub" })
        );
        assert!(big.try_add(&-Rational::ONE).is_ok());
        let msg = big.try_add(&Rational::ONE).unwrap_err().to_string();
        assert!(msg.contains("overflow"), "{msg}");
    }

    /// Regression for the `L^i_P(K)` lower-bound gadgets: a ~1e4-task
    /// chain of alternating fractional lengths must stay reduced (the
    /// running sum's denominator stays the lcm of the small task
    /// denominators, not their product) and must never overflow.
    #[test]
    fn long_alternating_chain_stays_normalized() {
        let lens = [r(1, 3), r(1, 7), r(3, 5), r(5, 8), r(1, 9), r(2, 11)];
        let mut sum = Rational::ZERO;
        for i in 0..10_000 {
            sum = sum
                .try_add(&lens[i % lens.len()])
                .expect("chain sum must not overflow");
            // Normalization invariant after every op.
            assert!(sum.denom() > 0);
            assert_eq!(
                gcd(sum.numer().unsigned_abs(), sum.denom().unsigned_abs()),
                1
            );
            // lcm(3,7,5,8,9,11) = 27720: the reduced denominator divides it.
            assert_eq!(27720 % sum.denom(), 0);
        }
        // Exact closed form: 1667 full rounds minus the last 2 terms.
        let round: Rational = lens.iter().fold(Rational::ZERO, |a, b| a + *b);
        let expect = round.checked_mul_int(1667).unwrap() - r(1, 9) - r(2, 11);
        assert_eq!(sum, expect);
        // Comparisons against dyadic grid points keep working at size.
        assert!(sum > Rational::from_int(3000));
        assert!(sum < Rational::from_int(4000));
    }
}
