//! Category lengths and the L-matrix (the paper's Definitions 4–5 and
//! Lemma 4).
//!
//! For an instance with critical-path length `C`, the **length** of a
//! category `ζ = λ·2^χ` is an upper bound on the execution time of any
//! task in that category:
//!
//! ```text
//! L_ζ = min(2^(χ+1), C − (λ−1)·2^χ)   if C > λ·2^χ,   else 0.
//! ```
//!
//! The **L-matrix** `L(C)` arranges those lengths by power level (rows,
//! decreasing `χ` from the top) and longitude (columns, odd `λ` increasing
//! left to right). It depends only on `C`, not on the specific instance,
//! and it is the paper's central analysis object: Theorem 1 bounds
//! `Σ L_ζ` over any `n` categories by `(log₂(n) + 1)·C`, and Theorem 2
//! truncates the matrix by task-length bounds `[m, M]` into `L*`.
//!
//! None of this is consulted by the CatBatch *algorithm* — it exists for
//! analysis, tests and the figure regenerators (paper Figures 4, 5, 7).

use crate::category::Category;
use rigid_time::{Pow2, Rational, Time};

/// The category length `L_ζ(C)` (Definition 4).
pub fn category_length(cat: Category, critical_path: Time) -> Time {
    let zeta = cat.value();
    if critical_path <= zeta {
        return Time::ZERO;
    }
    let p = cat.pow2();
    let full = p.double().as_time(); // 2^(χ+1)
    let tail = critical_path - p.grid_point(cat.lambda - 1); // C − (λ−1)2^χ
    full.min(tail)
}

/// The `L*` truncation of a category length under task-length bounds
/// `m ≤ t ≤ M` (Section 5, before Theorem 2):
/// `L*_ζ = min(M, L_ζ)` if `L_ζ ≥ m`, else 0.
pub fn category_length_bounded(cat: Category, critical_path: Time, m: Time, big_m: Time) -> Time {
    let l = category_length(cat, critical_path);
    if l < m {
        Time::ZERO
    } else {
        l.min(big_m)
    }
}

/// The L-matrix `L(C)` for a given critical-path length (Definition 5).
///
/// Entries are indexed 1-based as in the paper: row `i` holds power level
/// `χ = X + 1 − i` where `2^X < C ≤ 2^(X+1)`, and column `j` holds
/// longitude `λ = 2j − 1`.
#[derive(Clone, Debug)]
pub struct LMatrix {
    critical_path: Time,
    x: i32,
}

impl LMatrix {
    /// Builds the L-matrix for critical-path length `C > 0`.
    ///
    /// # Panics
    /// Panics if `C ≤ 0`.
    pub fn new(critical_path: Time) -> Self {
        assert!(critical_path.is_positive(), "C must be positive");
        LMatrix {
            critical_path,
            x: Pow2::bracket_exponent(critical_path),
        }
    }

    /// The critical-path length `C`.
    pub fn critical_path(&self) -> Time {
        self.critical_path
    }

    /// The bracket exponent `X` with `2^X < C ≤ 2^(X+1)`.
    pub fn x(&self) -> i32 {
        self.x
    }

    /// The category at matrix position `(i, j)` (both 1-based).
    pub fn category_at(&self, i: u32, j: u32) -> Category {
        assert!(i >= 1 && j >= 1, "L-matrix is 1-indexed");
        Category::new(self.x + 1 - i as i32, 2 * j as i64 - 1)
    }

    /// The entry `ℓ_{i,j}` via the closed form of Lemma 4.
    pub fn entry(&self, i: u32, j: u32) -> Time {
        assert!(i >= 1 && j >= 1, "L-matrix is 1-indexed");
        let c = self.critical_path;
        let step = Pow2::new(self.x + 2 - i as i32); // 2^(X+2−i)
        let half_step = Pow2::new(self.x + 1 - i as i32); // 2^(X+1−i)
        let j = j as i64;
        if step.grid_point(j) <= c {
            step.as_time()
        } else if half_step.grid_point(2 * j - 1) < c {
            c - step.grid_point(j - 1)
        } else {
            Time::ZERO
        }
    }

    /// The `L*` entry under length bounds `[m, M]`.
    pub fn entry_bounded(&self, i: u32, j: u32, m: Time, big_m: Time) -> Time {
        let l = self.entry(i, j);
        if l < m {
            Time::ZERO
        } else {
            l.min(big_m)
        }
    }

    /// Number of strictly positive entries in row `i`. Finite for every
    /// row: row 1 has exactly one, and row `i` has at most `2^(i−1)`
    /// (shown inside the proof of Theorem 2, Claim 3).
    pub fn positive_in_row(&self, i: u32) -> u32 {
        let mut j = 1;
        while self.entry(i, j).is_positive() {
            j += 1;
            assert!(j < (1u32 << 30), "runaway row scan");
        }
        j - 1
    }

    /// Sum of row `i`. At most `C` for every row (Theorem 1 proof,
    /// Claim 2).
    pub fn row_sum(&self, i: u32) -> Time {
        let mut sum = Time::ZERO;
        let mut j = 1;
        loop {
            let e = self.entry(i, j);
            if !e.is_positive() {
                break;
            }
            sum += e;
            j += 1;
        }
        sum
    }

    /// The sum of the `n` largest values in the matrix. Per Claim 1 of
    /// Theorem 1's proof these are obtained row by row, left to right.
    pub fn top_n_sum(&self, n: usize) -> Time {
        let mut remaining = n;
        let mut sum = Time::ZERO;
        let mut i = 1;
        while remaining > 0 {
            let mut j = 1;
            loop {
                let e = self.entry(i, j);
                if !e.is_positive() {
                    break;
                }
                sum += e;
                remaining -= 1;
                if remaining == 0 {
                    return sum;
                }
                j += 1;
            }
            i += 1;
            assert!(i < 200, "top_n_sum ran past all meaningful rows");
        }
        sum
    }

    /// Renders the matrix's first `rows × cols` block for display
    /// (Figure 5-style), one row per line.
    pub fn render(&self, rows: u32, cols: u32) -> String {
        let mut out = String::new();
        for i in 1..=rows {
            let cells: Vec<String> = (1..=cols)
                .map(|j| format!("{:>6}", format!("{}", self.entry(i, j))))
                .collect();
            out.push_str(&cells.join(" "));
            out.push('\n');
        }
        out
    }

    /// Renders the category-value matrix (Figure 5, right).
    pub fn render_categories(&self, rows: u32, cols: u32) -> String {
        let mut out = String::new();
        for i in 1..=rows {
            let cells: Vec<String> = (1..=cols)
                .map(|j| format!("{:>6}", format!("{}", self.category_at(i, j).value())))
                .collect();
            out.push_str(&cells.join(" "));
            out.push('\n');
        }
        out
    }
}

/// The Theorem 1 analytic bound on any `n`-category length sum:
/// `Σ L_ζ ≤ (log₂(n) + 1)·C`, returned as an `f64` multiple of `C`
/// (reporting helper for tests and benches).
pub fn theorem1_coefficient(n: usize) -> f64 {
    assert!(n >= 1);
    (n as f64).log2() + 1.0
}

/// The Theorem 1 competitive-ratio bound `log₂(n) + 3`.
pub fn theorem1_ratio_bound(n: usize) -> f64 {
    assert!(n >= 1);
    (n as f64).log2() + 3.0
}

/// The Theorem 2 competitive-ratio bound `log₂(M/m) + 6`.
pub fn theorem2_ratio_bound(m: Time, big_m: Time) -> f64 {
    assert!(m.is_positive() && big_m >= m);
    big_m.ratio(m).to_f64().log2() + 6.0
}

/// Exact check that a rational ratio is below an `f64` bound with a small
/// tolerance for the float conversion of the bound itself.
pub fn ratio_within(ratio: Rational, bound: f64) -> bool {
    ratio.to_f64() <= bound + 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::compute_category;

    fn c68() -> LMatrix {
        LMatrix::new(Time::from_millis(6, 800))
    }

    /// Figure 5 (left): the L-matrix for C = 6.8.
    #[test]
    fn figure5_lmatrix_entries() {
        let m = c68();
        assert_eq!(m.x(), 2);
        let t = Time::from_millis;
        // Row 1: 6.8 0 0 ...
        assert_eq!(m.entry(1, 1), t(6, 800));
        assert_eq!(m.entry(1, 2), Time::ZERO);
        // Row 2: 4 2.8 0 ...
        assert_eq!(m.entry(2, 1), t(4, 0));
        assert_eq!(m.entry(2, 2), t(2, 800));
        assert_eq!(m.entry(2, 3), Time::ZERO);
        // Row 3: 2 2 2 0 ...
        for j in 1..=3 {
            assert_eq!(m.entry(3, j), t(2, 0));
        }
        assert_eq!(m.entry(3, 4), Time::ZERO);
        // Row 4: 1 1 1 1 1 1 0.8 0 ...
        for j in 1..=6 {
            assert_eq!(m.entry(4, j), t(1, 0));
        }
        assert_eq!(m.entry(4, 7), t(0, 800));
        assert_eq!(m.entry(4, 8), Time::ZERO);
        // Row 5: all 0.5 up to column 13, then 0.3? — per Definition 4,
        // ζ = 13.5·... Let's check first and the tail behaviour instead:
        assert_eq!(m.entry(5, 1), t(0, 500));
    }

    /// Figure 5 (right): the category values.
    #[test]
    fn figure5_category_values() {
        let m = c68();
        let v = |i, j| m.category_at(i, j).value();
        assert_eq!(v(1, 1), Time::from_int(4));
        assert_eq!(v(1, 2), Time::from_int(12));
        assert_eq!(v(2, 1), Time::from_int(2));
        assert_eq!(v(2, 2), Time::from_int(6));
        assert_eq!(v(3, 3), Time::from_int(5));
        assert_eq!(v(4, 7), Time::from_ratio(13, 2));
        assert_eq!(v(4, 1), Time::from_ratio(1, 2));
    }

    /// Figure 4: lengths of the six non-empty categories of the example.
    #[test]
    fn figure4_category_lengths() {
        let c = Time::from_millis(6, 800);
        let t = Time::from_millis;
        let cases = [
            (Category::new(2, 1), t(6, 800)),   // ζ=4 (A, E, I)
            (Category::new(1, 1), t(4, 0)),     // ζ=2 (C, D)
            (Category::new(0, 1), t(2, 0)),     // ζ=1 (B)
            (Category::new(0, 5), t(2, 0)),     // ζ=5 (H, K)
            (Category::new(-1, 7), t(1, 0)),    // ζ=3.5 (F, G)
            (Category::new(-1, 13), t(0, 800)), // ζ=6.5 (J)
        ];
        for (cat, expect) in cases {
            assert_eq!(category_length(cat, c), expect, "L_ζ for {cat:?}");
        }
    }

    /// Lemma 4's closed form agrees with Definition 4 everywhere.
    #[test]
    fn lemma4_matches_definition4() {
        for c_num in [17i64, 34, 55, 64, 100, 127] {
            let c = Time::from_ratio(c_num, 5);
            let m = LMatrix::new(c);
            for i in 1..=8 {
                for j in 1..=20 {
                    let cat = m.category_at(i, j);
                    assert_eq!(
                        m.entry(i, j),
                        category_length(cat, c),
                        "mismatch at ({i},{j}) for C={c}"
                    );
                }
            }
        }
    }

    /// Lemma 3: every task's length is at most its category's length.
    #[test]
    fn lemma3_task_length_bounded() {
        // Tasks from Figure 3 with C = 6.8.
        let c = Time::from_millis(6, 800);
        let t = Time::from_millis;
        let tasks = [
            (t(0, 0), t(6, 0)),
            (t(0, 0), t(2, 0)),
            (t(2, 0), t(4, 800)),
            (t(3, 0), t(3, 600)),
            (t(4, 800), t(6, 0)),
            (t(6, 0), t(6, 800)),
        ];
        for (s, f) in tasks {
            let cat = compute_category(s, f);
            assert!(f - s <= category_length(cat, c));
        }
    }

    /// Theorem 1 proof, Claim 2: each row sums to at most C; row 1 has a
    /// single positive value; row i ≥ 2 has at least 2^(i−2) positive
    /// values.
    #[test]
    fn theorem1_claim2_row_structure() {
        for c_num in [34i64, 40, 64, 100] {
            let c = Time::from_ratio(c_num, 5);
            let m = LMatrix::new(c);
            assert_eq!(m.positive_in_row(1), 1, "C={c}");
            for i in 1..=8u32 {
                assert!(m.row_sum(i) <= c, "row {i} sum exceeds C={c}");
                if i >= 2 {
                    assert!(
                        m.positive_in_row(i) >= 1 << (i - 2),
                        "row {i} too few positives for C={c}"
                    );
                }
                // Theorem 2 proof, Claim 3: at most 2^(i−1) positives.
                assert!(m.positive_in_row(i) <= 1 << (i - 1));
            }
        }
    }

    /// Theorem 1 proof, Claim 3: the sum of any n values is at most
    /// (log₂(n) + 1)·C.
    #[test]
    fn theorem1_claim3_top_n_bound() {
        for c_num in [34i64, 47, 64] {
            let c = Time::from_ratio(c_num, 5);
            let m = LMatrix::new(c);
            for n in [1usize, 2, 3, 5, 8, 16, 33, 100, 1000] {
                let sum = m.top_n_sum(n).to_f64();
                let bound = theorem1_coefficient(n) * c.to_f64();
                assert!(
                    sum <= bound + 1e-9,
                    "top-{n} sum {sum} exceeds ({}) for C={c}",
                    bound
                );
            }
        }
    }

    /// Figure 7 (right): the L* matrix for C = 6.8, m = 0.9, M = 2.3.
    #[test]
    fn figure7_lstar_entries() {
        let m = c68();
        let lo = Time::from_millis(0, 900);
        let hi = Time::from_millis(2, 300);
        let t = Time::from_millis;
        // Row 1 (Reduced): 2.3
        assert_eq!(m.entry_bounded(1, 1, lo, hi), t(2, 300));
        // Row 2 (Reduced): 2.3 2.3
        assert_eq!(m.entry_bounded(2, 1, lo, hi), t(2, 300));
        assert_eq!(m.entry_bounded(2, 2, lo, hi), t(2, 300));
        // Row 3 (Unchanged): 2 2 2
        for j in 1..=3 {
            assert_eq!(m.entry_bounded(3, j, lo, hi), t(2, 0));
        }
        // Row 4 (Unchanged except last): 1×6 then 0.8 → 0
        for j in 1..=6 {
            assert_eq!(m.entry_bounded(4, j, lo, hi), t(1, 0));
        }
        assert_eq!(m.entry_bounded(4, 7, lo, hi), Time::ZERO);
        // Row 5 (Impossible): all 0
        assert_eq!(m.entry_bounded(5, 1, lo, hi), Time::ZERO);
    }

    #[test]
    fn bound_functions() {
        assert!((theorem1_ratio_bound(8) - 6.0).abs() < 1e-12);
        assert!((theorem1_coefficient(1) - 1.0).abs() < 1e-12);
        assert!((theorem2_ratio_bound(Time::ONE, Time::from_int(4)) - 8.0).abs() < 1e-12);
        assert!(ratio_within(Rational::new(3, 1), 3.0));
        assert!(!ratio_within(Rational::new(31, 10), 3.0));
    }

    #[test]
    fn render_produces_grid() {
        let m = c68();
        let s = m.render(4, 8);
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("6.8"));
        assert!(s.contains("2.8"));
        assert!(s.contains("0.8"));
        let cats = m.render_categories(4, 8);
        assert!(cats.contains("6.5"));
    }

    #[test]
    fn exact_power_of_two_c() {
        // C = 8 = 2^3: bracket X = 2, top-left entry equals C.
        let m = LMatrix::new(Time::from_int(8));
        assert_eq!(m.x(), 2);
        assert_eq!(m.entry(1, 1), Time::from_int(8));
        assert_eq!(m.entry(1, 2), Time::ZERO);
    }
}
