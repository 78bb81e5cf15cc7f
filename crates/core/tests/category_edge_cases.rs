//! Category/L-matrix edge cases and cross-checks at scale extremes.

use catbatch::category::{compute_category, Category};
use catbatch::lmatrix::{category_length, category_length_bounded, LMatrix};
use catbatch::{CatBatch, GuaranteeMonitor};
use rigid_dag::{DagBuilder, StaticSource};
use rigid_sim::engine;
use rigid_time::{Pow2, Time};

#[test]
fn category_of_huge_interval() {
    // (0, 2^40): the top grid point inside is 2^39.
    let c = compute_category(Time::ZERO, Time::from_int(1 << 40));
    assert_eq!(c.chi, 39);
    assert_eq!(c.lambda, 1);
}

#[test]
fn category_of_deep_tiny_interval() {
    // A 2^-40-long interval far from the origin still resolves exactly.
    let base = Time::from_int(1_000_000);
    let eps = Time::from_rational(Pow2::new(-40).as_time().rational());
    let c = compute_category(base, base + eps);
    assert!(c.value() > base && c.value() < base + eps);
    assert_eq!(c.lambda % 2, 1);
    assert!(c.chi <= -40);
}

#[test]
fn adjacent_intervals_get_distinct_categories() {
    // Tasks glued end to end (chain criticalities) get strictly
    // increasing categories.
    let mut prev: Option<Category> = None;
    let mut s = Time::ZERO;
    for k in 1..=40i64 {
        let t = Time::from_ratio(k, 7);
        let c = compute_category(s, s + t);
        if let Some(p) = prev {
            assert!(c > p, "category not increasing at k={k}");
        }
        prev = Some(c);
        s += t;
    }
}

#[test]
fn lmatrix_tiny_critical_path() {
    // C below 1: X is negative; the matrix still works.
    let m = LMatrix::new(Time::from_ratio(3, 8));
    assert!(m.x() < 0);
    assert_eq!(m.entry(1, 1), Time::from_ratio(3, 8));
    assert_eq!(m.row_sum(1), Time::from_ratio(3, 8));
    assert!(m.top_n_sum(100) <= Time::from_ratio(3, 8).mul_int(8));
}

#[test]
fn lmatrix_huge_critical_path() {
    let c = Time::from_int(1 << 30);
    let m = LMatrix::new(c);
    assert_eq!(m.x(), 29);
    assert_eq!(m.entry(1, 1), c);
    for i in 1..=5 {
        assert!(m.row_sum(i) <= c);
    }
}

#[test]
fn bounded_length_with_degenerate_bounds() {
    let cat = Category::new(0, 1);
    let c = Time::from_int(10);
    // m = M: categories either fit exactly or die.
    let l = category_length_bounded(cat, c, Time::from_int(2), Time::from_int(2));
    assert_eq!(l, Time::from_int(2)); // L_ζ = 2 here
    let l2 = category_length_bounded(cat, c, Time::from_int(3), Time::from_int(3));
    assert_eq!(l2, Time::ZERO); // L_ζ = 2 < m = 3
                                // Category at or past C has zero length regardless.
    let past = Category::new(4, 1); // ζ = 16 > C
    assert_eq!(category_length(past, c), Time::ZERO);
}

#[test]
fn catbatch_on_two_level_dyadic_ladder() {
    // Tasks engineered so every batch has exactly one task: worst batch
    // overhead; ratio still within Theorem 1.
    let mut b = DagBuilder::new();
    let mut prev: Option<String> = None;
    for k in 0..10 {
        let name = format!("t{k}");
        b = b.task(&name, Time::from_ratio(1, 1 << k.min(20)), 1);
        if let Some(p) = &prev {
            b = b.edge(p, &name);
        }
        prev = Some(name);
    }
    let inst = b.build(2);
    let mut cb = CatBatch::new();
    let r = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut cb);
    r.schedule.assert_valid(&inst);
    assert_eq!(cb.batch_history().len(), 10);
    let ratio = r
        .makespan()
        .ratio(rigid_dag::analysis::lower_bound(&inst))
        .to_f64();
    assert!(ratio <= (10f64).log2() + 3.0);
}

#[test]
#[should_panic(expected = "no tasks revealed")]
fn monitor_guarantee_needs_a_release() {
    let m = GuaranteeMonitor::new(4);
    let _ = m.ratio_guarantee();
}

#[test]
fn monitor_counts_distinct_categories_once() {
    use rigid_dag::{ReleasedTask, TaskId, TaskSpec};
    let mut m = GuaranteeMonitor::new(4);
    // Two independent tasks with identical criticality share a category.
    for id in 0..2u32 {
        m.on_release(&ReleasedTask {
            id: TaskId(id),
            spec: TaskSpec::new(Time::from_int(3), 1),
            preds: vec![],
        });
    }
    assert_eq!(m.revealed_tasks(), 2);
    assert_eq!(m.revealed_categories(), 1);
}

#[test]
fn parent_chain_reaches_interval_cover() {
    // Walking parents from a deep category eventually covers any longer
    // interval that contains it.
    let c = compute_category(Time::from_millis(4, 800), Time::from_int(6));
    let mut cur = c;
    for _ in 0..10 {
        cur = cur.parent();
    }
    let (lo, hi) = cur.bracket();
    assert!(lo <= Time::from_millis(4, 800));
    assert!(hi >= Time::from_int(6));
}
