//! Moldable-model edge cases.

use rigid_moldable::{schedule_online, AllocRule, InnerSched, MoldableBuilder, SpeedupModel};
use rigid_time::{Rational, Time};

#[test]
fn fully_sequential_amdahl_ignores_processors() {
    let m = SpeedupModel::Amdahl {
        work: Time::from_int(7),
        seq_fraction: Rational::ONE,
    };
    for p in 1..=16 {
        assert_eq!(m.time(p), Time::from_int(7));
    }
    assert_eq!(m.min_time_alloc(16), 1);
    // Constant t(p) means efficiency 1/p: the rule admits p = 2 at the
    // 1/2 threshold (definitionally, even though it buys nothing).
    assert_eq!(m.efficient_alloc(16, Rational::new(1, 2)), 2);
    assert_eq!(m.efficient_alloc(16, Rational::ONE), 1);
}

#[test]
fn fully_parallel_amdahl_is_linear() {
    let m = SpeedupModel::Amdahl {
        work: Time::from_int(8),
        seq_fraction: Rational::ZERO,
    };
    assert_eq!(m.time(8), Time::ONE);
    assert_eq!(m.area(8), Time::from_int(8)); // constant area
    assert_eq!(m.min_time_alloc(8), 8);
}

#[test]
fn roofline_cap_beyond_platform() {
    let m = SpeedupModel::Roofline {
        work: Time::from_int(12),
        max_par: 100,
    };
    assert_eq!(m.min_time_alloc(4), 4); // clipped by P
    assert_eq!(m.time(4), Time::from_int(3));
}

#[test]
fn communication_overhead_dominates_eventually() {
    let m = SpeedupModel::Communication {
        work: Time::from_int(4),
        overhead: Time::ONE,
    };
    // t(1) = 4, t(2) = 3, t(4) = 4: optimum at p = 2.
    assert_eq!(m.min_time_alloc(8), 2);
}

#[test]
fn single_task_instance_schedules_at_lb() {
    let mut b = MoldableBuilder::new();
    b.task(SpeedupModel::Roofline {
        work: Time::from_int(6),
        max_par: 3,
    });
    let inst = b.build(4);
    let run = schedule_online(&inst, AllocRule::MinTime, InnerSched::CatBatch);
    assert_eq!(run.run.makespan(), Time::from_int(2));
    assert!((run.ratio_to_moldable_lb - 1.0).abs() < 1e-9);
    assert_eq!(run.alloc, vec![3]);
}

#[test]
fn lower_bound_never_exceeds_any_schedule() {
    for seed in 0..6u64 {
        let inst = rigid_bench_free_moldable(seed);
        let lb = inst.lower_bound();
        for rule in [
            AllocRule::MinTime,
            AllocRule::HalfEfficient,
            AllocRule::Sequential,
        ] {
            let r = schedule_online(&inst, rule, InnerSched::Asap);
            assert!(r.run.makespan() >= lb, "seed {seed} rule {:?}", rule);
        }
    }
}

/// A small deterministic moldable instance builder (independent of the
/// bench crate's generator).
fn rigid_bench_free_moldable(seed: u64) -> rigid_moldable::MoldableInstance {
    let mut b = MoldableBuilder::new();
    let mut prev = None;
    for k in 0..10u64 {
        let mix = (seed + k) % 3;
        let work = Time::from_ratio(((seed * 7 + k * 13) % 40 + 8) as i64, 4);
        let id = b.task(match mix {
            0 => SpeedupModel::Roofline {
                work,
                max_par: ((seed + k) % 8 + 1) as u32,
            },
            1 => SpeedupModel::Amdahl {
                work,
                seq_fraction: Rational::new(((seed + k) % 4) as i128, 10),
            },
            _ => SpeedupModel::Communication {
                work,
                overhead: Time::from_ratio(1, 8),
            },
        });
        if let Some(p) = prev {
            if k % 2 == 0 {
                b.edge(p, id);
            }
        }
        prev = Some(id);
    }
    b.build(8)
}

#[test]
fn sequential_alloc_maximizes_critical_path() {
    let inst = rigid_bench_free_moldable(3);
    let seq = schedule_online(&inst, AllocRule::Sequential, InnerSched::CatBatch);
    let fast = schedule_online(&inst, AllocRule::MinTime, InnerSched::CatBatch);
    // Sequential never allocates more than one processor.
    assert!(seq.alloc.iter().all(|&p| p == 1));
    assert!(fast.alloc.iter().any(|&p| p > 1));
}
