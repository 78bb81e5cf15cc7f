//! # catbatch — online scheduling of rigid task graphs
//!
//! A faithful, from-scratch implementation of **CatBatch**, the online
//! algorithm of *“A New Algorithm for Online Scheduling of Rigid Task
//! Graphs with Near-Optimal Competitive Ratio”* (Perotin, Sun, Raghavan;
//! SPAA 2025), together with the full analysis machinery of the paper:
//!
//! * [`attributes`] — online criticality tracking `(s∞, f∞)`
//!   (Definition 1, Lemma 1);
//! * [`category`] — power level `χ`, longitude `λ`, category `ζ = λ·2^χ`
//!   (Definitions 2–3, Lemma 2), computed exactly: an O(1) integer kernel
//!   for dyadic criticalities, a level-by-level search on exact
//!   rationals otherwise;
//! * [`lmatrix`] — category lengths `L_ζ` and the L-matrix (Definitions
//!   4–5, Lemmas 3–4), plus the Theorem 1/2 bound functions;
//! * [`catbatch`] — the scheduler itself (Algorithms 1–3): batch by
//!   category, process batches in increasing `ζ`, greedy inside a batch,
//!   full barrier between batches;
//! * [`analysis`] — offline category decomposition, attribute tables and
//!   the Lemma 7 makespan bound.
//!
//! Guarantees (proved in the paper, checked empirically by this
//! workspace's test suite and experiment harness):
//!
//! * `T_CatBatch(I) ≤ (log₂(n) + 3)·Lb(I)` for every instance with `n`
//!   tasks (Theorem 1);
//! * `T_CatBatch(I) ≤ (log₂(M/m) + 6)·Lb(I)` when task lengths lie in
//!   `[m, M]` (Theorem 2);
//! * no online algorithm can beat `Ω(log n)` or `Ω(log(M/m))`
//!   (Theorems 3–4; see the `rigid-lowerbounds` crate).
//!
//! ## Quickstart
//!
//! ```
//! use catbatch::CatBatch;
//! use rigid_dag::{DagBuilder, StaticSource, analysis};
//! use rigid_sim::engine;
//! use rigid_time::Time;
//!
//! let inst = DagBuilder::new()
//!     .task("prep",  Time::from_int(1), 2)
//!     .task("solve", Time::from_int(4), 4)
//!     .task("post",  Time::from_int(1), 1)
//!     .edge("prep", "solve")
//!     .edge("solve", "post")
//!     .build(4);
//!
//! let result = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
//! result.schedule.assert_valid(&inst);
//!
//! // Theorem 1: within (log2(3) + 3) of the lower bound.
//! let ratio = result.makespan().ratio(analysis::lower_bound(&inst)).to_f64();
//! assert!(ratio <= (3.0f64).log2() + 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod attributes;
pub mod catbatch;
pub mod category;
pub mod heuristics;
pub mod lmatrix;
pub mod monitor;

pub use attributes::CriticalityTracker;
pub use catbatch::{BatchRecord, CatBatch};
pub use category::{compute_category, Category};
pub use heuristics::{CatBatchBackfill, CatPrio, EstimatedCatBatch};
pub use lmatrix::{category_length, LMatrix};
pub use monitor::{AssumptionReport, GuaranteeMonitor};

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use rigid_dag::gen::{erdos_dag, fork_join, layered, TaskSampler};
    use rigid_dag::{analysis as dag_analysis, StaticSource};
    use rigid_sim::engine;
    use rigid_time::{Time, MIN_EXPONENT};

    fn arb_interval() -> impl Strategy<Value = (Time, Time)> {
        // s∞ ∈ [0, 1000) and t ∈ (0, 100] on a millis grid.
        (0i64..1_000_000, 1i64..100_000).prop_map(|(s_m, t_m)| {
            let s = Time::from_ratio(s_m, 1000);
            (s, s + Time::from_ratio(t_m, 1000))
        })
    }

    /// Intervals with both endpoints on a `2^-k` grid. A quarter of them
    /// start at `s∞ = 0`, a quarter are one grid step wide and a quarter
    /// 2–9 steps; otherwise `s∞ = a·2^t` and the width is `b·2^u` steps,
    /// so the endpoints also sit on coarser grid points.
    fn arb_grid_interval() -> impl Strategy<Value = (Time, Time)> {
        let start = (0u8..4, 0i64..1 << 20, 0u32..=20);
        let width = (0u8..4, 1i64..1 << 10, 0u32..=20);
        (0i32..=62, start, width).prop_map(|(k, (zero, a, t), (size, b, u))| {
            let s = if zero == 0 { 0 } else { a << t };
            let d = match size {
                0 => 1,
                1 => 2 + (b & 7),
                _ => b << u,
            };
            (Time::from_dyadic(s, -k), Time::from_dyadic(s + d, -k))
        })
    }

    /// `(e, a, b)` for the interval `(a·2^e, (a+b)·2^e)` at the ends of
    /// the exponent range, `e ∈ [-126, -110] ∪ [100, 120]`; `a = 0` and
    /// `b = 1` a quarter of the time each. `f∞ < 2^126` keeps the
    /// reference search's rational grid points inside `i128`.
    fn arb_extreme_interval() -> impl Strategy<Value = (i32, i64, i64)> {
        let start = (0u8..4, 1i64..32);
        let width = (0u8..4, 2i64..32);
        (0i32..38, start, width).prop_map(|(i, (zero, a), (unit, b))| {
            let e = if i < 17 { MIN_EXPONENT + i } else { 83 + i };
            let a = if zero == 0 { 0 } else { a };
            let b = if unit == 0 { 1 } else { b };
            (e, a, b)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The O(1) kernel answers every moderate grid interval, and its
        /// answer is the reference search's.
        #[test]
        fn kernel_matches_search_on_grid((s, f) in arb_grid_interval()) {
            let kernel = category::dyadic_category(s, f);
            prop_assert_eq!(kernel, Some(category::search_category(s, f)));
        }

        /// At the ends of the exponent range the kernel declines exactly
        /// when no point of the finest grid `2^-126` lies inside the
        /// interval (the category's `χ` would be below `Pow2`'s range),
        /// and otherwise agrees with the reference search.
        #[test]
        fn kernel_at_exponent_extremes((e, a, b) in arb_extreme_interval()) {
            let (s, f) = (Time::from_dyadic(a, e), Time::from_dyadic(a + b, e));
            // In steps of the finest grid the interval is
            // (a·2^(e+126), (a+b)·2^(e+126)): it holds a grid point unless
            // it is a single step wide.
            let holds_finest_point = !(e == MIN_EXPONENT && b == 1);
            match category::dyadic_category(s, f) {
                Some(c) => {
                    prop_assert!(holds_finest_point);
                    prop_assert_eq!(c, category::search_category(s, f));
                }
                None => prop_assert!(!holds_finest_point),
            }
        }

        /// Lemma 2: the computed λ is odd and the brackets hold.
        #[test]
        fn lemma2_properties((s, f) in arb_interval()) {
            let c = compute_category(s, f);
            prop_assert_eq!(c.lambda % 2, 1);
            let p = c.pow2();
            prop_assert!(p.grid_point(c.lambda - 1) <= s);
            prop_assert!(s < c.value());
            prop_assert!(c.value() < f);
            prop_assert!(f <= p.grid_point(c.lambda + 1));
        }

        /// Maximality of χ: no grid point of level χ+1 lies strictly
        /// inside the interval.
        #[test]
        fn chi_is_maximal((s, f) in arb_interval()) {
            let c = compute_category(s, f);
            let up = rigid_time::Pow2::new(c.chi + 1);
            let lam = up.next_multiple_after(s);
            prop_assert!(up.grid_point(lam as i64) >= f);
        }

        /// Lemma 3: task length ≤ category length, for any C ≥ f∞.
        #[test]
        fn lemma3_length_bound((s, f) in arb_interval(), extra in 0i64..1_000) {
            let c = compute_category(s, f);
            let cpath = f + Time::from_ratio(extra, 10);
            prop_assert!(f - s <= category_length(c, cpath));
        }

        /// Theorem 1 end-to-end on random DAGs: the CatBatch makespan is
        /// within (log₂ n + 3)·Lb, and the schedule is feasible.
        #[test]
        fn theorem1_on_random_dags(seed in 0u64..2_000, n in 1usize..40, p in 1u32..17) {
            let inst = erdos_dag(seed, n, 0.15, &TaskSampler::default_mix(), p);
            let mut src = StaticSource::new(inst.clone());
            let mut cb = CatBatch::new();
            let result = engine::EngineConfig::new().run(&mut src, &mut cb);
            prop_assert!(result.schedule.validate(&inst).is_empty());
            let lb = dag_analysis::lower_bound(&inst);
            let ratio = result.makespan().ratio(lb).to_f64();
            let bound = lmatrix::theorem1_ratio_bound(n);
            prop_assert!(ratio <= bound + 1e-9, "ratio {} > bound {}", ratio, bound);
        }

        /// Lemma 7 end-to-end: makespan ≤ 2A/P + Σ L_ζ.
        #[test]
        fn lemma7_on_random_dags(seed in 0u64..2_000, n in 1usize..40) {
            let inst = erdos_dag(seed, n, 0.2, &TaskSampler::default_mix(), 8);
            let bound = analysis::lemma7_bound(&inst);
            let mut src = StaticSource::new(inst.clone());
            let result = engine::EngineConfig::new().run(&mut src, &mut CatBatch::new());
            prop_assert!(result.makespan() <= bound);
        }

        /// Batch barrier invariant: batches never overlap and categories
        /// strictly increase.
        #[test]
        fn batch_barrier(seed in 0u64..2_000, n in 2usize..30) {
            let inst = erdos_dag(seed, n, 0.25, &TaskSampler::default_mix(), 4);
            let mut cb = CatBatch::new();
            let _ = engine::EngineConfig::new().run(&mut StaticSource::new(inst), &mut cb);
            for w in cb.batch_history().windows(2) {
                prop_assert!(w[0].finished_at <= w[1].started_at);
                prop_assert!(w[0].category < w[1].category);
            }
        }
    }

    /// Every criticality of generated workloads (dyadic lengths) takes
    /// the O(1) kernel, never the search.
    #[test]
    fn generated_criticalities_take_the_kernel() {
        let mix = TaskSampler::default_mix();
        for inst in [layered(7, 60, 30, &mix, 64), fork_join(7, 20, 40, &mix, 64)] {
            for crit in dag_analysis::criticalities(inst.graph()) {
                assert!(
                    category::dyadic_category(crit.start, crit.finish).is_some(),
                    "({}, {}) fell back to the search",
                    crit.start,
                    crit.finish
                );
            }
        }
    }
}
