//! Exact powers of two with integer (possibly negative) exponents.
//!
//! The category machinery of the paper (Definition 2) works on the dyadic
//! grid: a task's *power level* `χ` is the largest integer such that some
//! multiple `λ·2^χ` lies strictly inside the criticality interval
//! `(s∞, f∞)`. [`Pow2`] represents `2^χ` exactly for any `χ ∈ [-126, 126]`
//! and provides the grid arithmetic needed to locate those multiples.

use crate::rational::Rational;
use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The exact value `2^exponent`, with `exponent` possibly negative.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Pow2 {
    exponent: i32,
}

/// Exponent range representable inside an `i128` rational.
const MAX_ABS_EXPONENT: i32 = 126;

impl Pow2 {
    /// `2^0 = 1`.
    pub const ONE: Pow2 = Pow2 { exponent: 0 };

    /// Creates `2^exponent`.
    ///
    /// # Panics
    /// Panics if `|exponent| > 126` (outside the `i128` rational range).
    pub fn new(exponent: i32) -> Self {
        assert!(
            exponent.abs() <= MAX_ABS_EXPONENT,
            "Pow2 exponent {exponent} out of range ±{MAX_ABS_EXPONENT}"
        );
        Pow2 { exponent }
    }

    /// The exponent `χ` such that this value is `2^χ`.
    pub const fn exponent(&self) -> i32 {
        self.exponent
    }

    /// The exact rational value `2^χ`.
    pub fn value(&self) -> Rational {
        if self.exponent >= 0 {
            Rational::new(1i128 << self.exponent, 1)
        } else {
            Rational::new(1, 1i128 << (-self.exponent))
        }
    }

    /// The exact `Time` value `2^χ`.
    pub fn as_time(&self) -> Time {
        Time::from_rational(self.value())
    }

    /// The grid point `λ·2^χ` as an exact `Time`.
    pub fn grid_point(&self, lambda: i64) -> Time {
        Time::from_rational(
            self.value()
                .checked_mul_int(lambda as i128)
                .expect("grid point overflow"),
        )
    }

    /// `2^(χ+1)`.
    pub fn double(&self) -> Pow2 {
        Pow2::new(self.exponent + 1)
    }

    /// `2^(χ-1)`.
    pub fn halve(&self) -> Pow2 {
        Pow2::new(self.exponent - 1)
    }

    /// Largest integer `k` with `k·2^χ ≤ t` — i.e. `floor(t / 2^χ)`.
    pub fn floor_div(&self, t: Time) -> i128 {
        // Dyadic fast path: for `t = m·2^e`, `t / 2^χ = m·2^(e−χ)`, so
        // the floor is a pure shift of the mantissa — no gcd, no i128
        // division. A right shift of a negative mantissa rounds toward
        // −∞, which is exactly `floor`.
        if let Some(d) = t.dyadic() {
            let m = d.mantissa() as i128;
            if m == 0 {
                return 0;
            }
            let shift = i64::from(d.exponent()) - i64::from(self.exponent);
            if shift < 0 {
                let s = -shift;
                return if s >= 127 {
                    if m >= 0 {
                        0
                    } else {
                        -1
                    }
                } else {
                    m >> s
                };
            }
            let bitlen = i64::from(128 - m.unsigned_abs().leading_zeros());
            if bitlen + shift <= 127 {
                return m << shift;
            }
            // The exact quotient overflows i128; fall through so the
            // rational path reports it the way it always has.
        }
        let q = t
            .rational()
            .checked_div(&self.value())
            .expect("floor_div overflow");
        q.floor()
    }

    /// Smallest integer multiple of `2^χ` strictly greater than `t`,
    /// returned as the multiplier `λ = floor(t/2^χ) + 1`.
    pub fn next_multiple_after(&self, t: Time) -> i128 {
        self.floor_div(t) + 1
    }

    /// Largest `Pow2` that is `< t`, i.e. the largest `χ` with `2^χ < t`.
    ///
    /// # Panics
    /// Panics if `t ≤ 0`.
    pub fn largest_below(t: Time) -> Pow2 {
        assert!(t.is_positive(), "largest_below requires t > 0, got {t}");
        // Dyadic fast path: `t = m·2^e` with `m` odd ≥ 1 and
        // `b = bitlen(m)` gives `2^(b−1+e) ≤ t < 2^(b+e)`. The lower
        // bound is *equality* exactly when `m = 1` (then `t` sits on the
        // grid point and, per Definition 2's strict inequality, the
        // answer steps down to `e − 1`); for odd `m ≥ 3` it is strict.
        if let Some(d) = t.dyadic() {
            let chi = if d.mantissa() == 1 {
                d.exponent() - 1
            } else {
                // b ≤ 64 and b + e ≤ 127 (Dyadic's range), so χ ≤ 126.
                (64 - d.mantissa().leading_zeros() as i32) - 1 + d.exponent()
            };
            assert!(
                chi >= -MAX_ABS_EXPONENT,
                "largest_below underflow for t = {t}"
            );
            return Pow2::new(chi);
        }
        // Start from an exponent guaranteed to be >= the answer, then walk
        // down. The guess comes from exact numerator/denominator bit
        // lengths: for reduced `t = n/d > 0`, `2^(bn-1) ≤ n < 2^bn` and
        // `2^(bd-1) ≤ d < 2^bd` give `2^(bn-bd-1) < t < 2^(bn-bd+1)`, so
        // `bn - bd + 1` bounds `log2 t` from above and the correction
        // loops below probe at most twice. (The old `t.to_f64().log2()`
        // guess saturated through `as i32` whenever the float pipeline
        // produced ±inf/NaN, starting the walk from ±MAX_ABS_EXPONENT —
        // a 250-step correction loop in the worst case.)
        let r = t.rational();
        let bn = 128 - r.numer().unsigned_abs().leading_zeros() as i32;
        let bd = 128 - r.denom().unsigned_abs().leading_zeros() as i32;
        let guess = bn - bd + 1;
        let mut chi = guess.clamp(-MAX_ABS_EXPONENT, MAX_ABS_EXPONENT);
        while Pow2::new(chi).as_time() >= t {
            chi -= 1;
            assert!(
                chi >= -MAX_ABS_EXPONENT,
                "largest_below underflow for t = {t}"
            );
        }
        // Walk up in case the guess was too small.
        while chi < MAX_ABS_EXPONENT && Pow2::new(chi + 1).as_time() < t {
            chi += 1;
        }
        Pow2::new(chi)
    }

    /// The unique `X` such that `2^X < t ≤ 2^(X+1)` (used for the critical
    /// path bracket `2^X < C ≤ 2^(X+1)` in Lemma 4).
    ///
    /// # Panics
    /// Panics if `t ≤ 0`.
    pub fn bracket_exponent(t: Time) -> i32 {
        let below = Pow2::largest_below(t);
        // `below` satisfies 2^χ < t; check t ≤ 2^(χ+1) which holds by
        // maximality.
        debug_assert!(below.double().as_time() >= t);
        below.exponent()
    }
}

impl fmt::Debug for Pow2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "2^{}", self.exponent)
    }
}

impl fmt::Display for Pow2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "2^{}", self.exponent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values() {
        assert_eq!(Pow2::new(0).as_time(), Time::ONE);
        assert_eq!(Pow2::new(3).as_time(), Time::from_int(8));
        assert_eq!(Pow2::new(-2).as_time(), Time::from_ratio(1, 4));
    }

    #[test]
    fn grid_points() {
        assert_eq!(Pow2::new(-1).grid_point(13), Time::from_ratio(13, 2));
        assert_eq!(Pow2::new(2).grid_point(1), Time::from_int(4));
    }

    #[test]
    fn floor_div_exact() {
        let p = Pow2::new(-1); // 0.5
        assert_eq!(p.floor_div(Time::from_millis(6, 800)), 13); // 6.8/0.5 = 13.6
        assert_eq!(p.floor_div(Time::from_int(3)), 6);
        assert_eq!(p.next_multiple_after(Time::from_int(3)), 7);
    }

    #[test]
    fn largest_below_brackets() {
        // C = 6.8: 2^2 = 4 < 6.8 <= 8 = 2^3.
        let p = Pow2::largest_below(Time::from_millis(6, 800));
        assert_eq!(p.exponent(), 2);
        assert_eq!(Pow2::bracket_exponent(Time::from_millis(6, 800)), 2);
        // Exact powers: 2^3 < 8 is false, so largest below 8 is 2^2.
        assert_eq!(Pow2::largest_below(Time::from_int(8)).exponent(), 2);
        assert_eq!(Pow2::bracket_exponent(Time::from_int(8)), 2);
        // Tiny values go negative.
        assert_eq!(Pow2::largest_below(Time::from_ratio(1, 4)).exponent(), -3);
    }

    #[test]
    fn largest_below_tiny_and_huge() {
        assert_eq!(
            Pow2::largest_below(Time::from_ratio(1, 1 << 20)).exponent(),
            -21
        );
        assert_eq!(Pow2::largest_below(Time::from_int(1 << 40)).exponent(), 39);
    }

    #[test]
    #[should_panic(expected = "requires t > 0")]
    fn largest_below_rejects_zero() {
        let _ = Pow2::largest_below(Time::ZERO);
    }

    #[test]
    fn double_halve() {
        assert_eq!(Pow2::new(3).double().exponent(), 4);
        assert_eq!(Pow2::new(3).halve().exponent(), 2);
    }

    #[test]
    fn largest_below_at_extreme_exponents() {
        // Exact grid points at the edges of the dyadic range: the answer
        // must step strictly below (Definition 2 strict inequality).
        assert_eq!(
            Pow2::largest_below(Time::from_dyadic(1, 126)).exponent(),
            125
        );
        assert_eq!(
            Pow2::largest_below(Time::from_dyadic(1, -125)).exponent(),
            -126
        );
        // Odd mantissas near the edges bracket from inside the octave.
        assert_eq!(
            Pow2::largest_below(Time::from_dyadic(3, 124)).exponent(),
            125
        );
        assert_eq!(
            Pow2::largest_below(Time::from_dyadic(3, -126)).exponent(),
            -125
        );
        assert_eq!(
            Pow2::largest_below(Time::from_dyadic(i64::MAX, -126)).exponent(),
            -64
        );
    }

    /// Regression for the starting guess on *non-dyadic* rationals at
    /// extreme exponents (the slow path; dyadic values never reach the
    /// guess). The old f64 `log2` guess risked ±inf/NaN saturating
    /// through `as i32` into a wildly wrong start; the exact bit-length
    /// bound must land within two probes of the answer everywhere.
    #[test]
    fn largest_below_extreme_nondyadic_rationals() {
        // Tiny: t = 1/(3·2^120), so 2^-122 < t < 2^-121.
        let tiny = Time::from_rational(Rational::new(1, 3 * (1i128 << 120)));
        assert_eq!(Pow2::largest_below(tiny).exponent(), -122);
        // Huge: t = 3·2^120/7 ≈ 2^118.78.
        let huge = Time::from_rational(Rational::new(3 * (1i128 << 120), 7));
        assert_eq!(Pow2::largest_below(huge).exponent(), 118);
        // Numerator at the i128 ceiling: t = (2^127 − 1)/3 ≈ 2^125.4.
        let max = Time::from_rational(Rational::new(i128::MAX, 3));
        assert_eq!(Pow2::largest_below(max).exponent(), 125);
        // Maximal bit-length mismatch both ways.
        let lopsided_small = Time::from_rational(Rational::new(3, i128::MAX));
        assert_eq!(Pow2::largest_below(lopsided_small).exponent(), -126);
        let exact_power_ratio =
            Time::from_rational(Rational::new((1i128 << 125) + 1, (1i128 << 5) + 1));
        assert_eq!(Pow2::largest_below(exact_power_ratio).exponent(), 119);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn largest_below_underflows_past_min_exponent() {
        // 2^-126 is on the grid, but the strictly-smaller power 2^-127
        // is outside the representable range.
        let _ = Pow2::largest_below(Time::from_dyadic(1, -126));
    }

    #[test]
    fn floor_div_at_extreme_exponents() {
        // Same-scale extremes divide to exactly 1.
        assert_eq!(Pow2::new(126).floor_div(Time::from_dyadic(1, 126)), 1);
        assert_eq!(Pow2::new(-126).floor_div(Time::from_dyadic(1, -126)), 1);
        // A tiny positive value under a huge divisor floors to 0; the
        // same magnitude negated floors to −1 (floor, not truncation).
        assert_eq!(Pow2::new(126).floor_div(Time::from_dyadic(1, -126)), 0);
        assert_eq!(Pow2::new(126).floor_div(Time::from_dyadic(-1, -126)), -1);
        // A huge value over a small divisor that still fits i128.
        assert_eq!(
            Pow2::new(0).floor_div(Time::from_dyadic(1, 126)),
            1i128 << 126
        );
        assert_eq!(Pow2::new(126).floor_div(Time::ZERO), 0);
    }

    #[test]
    fn floor_div_grid_point_boundaries_are_strict() {
        // Exactly on a grid point: floor_div is exact and the next
        // multiple is strictly after (λ, not λ itself).
        let p = Pow2::new(-2);
        let on_grid = Time::from_ratio(3, 4); // 3·2^-2
        assert_eq!(p.floor_div(on_grid), 3);
        assert_eq!(p.next_multiple_after(on_grid), 4);
        // Just inside the cell, the floor stays at 3.
        assert_eq!(p.floor_div(Time::from_ratio(3_000_001, 4_000_000)), 3);
        // Non-dyadic values agree with the rational slow path.
        let third = Time::from_ratio(1, 3);
        assert_eq!(p.floor_div(third), 1); // (1/3)/(1/4) = 4/3
        assert_eq!(p.next_multiple_after(third), 2);
    }

    #[test]
    fn fast_and_slow_paths_agree_on_mixed_values() {
        // Cross-check the dyadic shift path against exact rational
        // division over a grid of (value, exponent) pairs.
        for chi in [-7i32, -3, -1, 0, 1, 3, 7] {
            let p = Pow2::new(chi);
            for num in [-17i64, -5, -1, 1, 3, 8, 21, 64] {
                for den in [1i64, 2, 4, 16, 3, 5] {
                    let t = Time::from_ratio(num, den);
                    let exact = t
                        .rational()
                        .checked_div(&p.value())
                        .expect("in range")
                        .floor();
                    assert_eq!(p.floor_div(t), exact, "χ={chi}, t={num}/{den}");
                }
            }
        }
    }
}
