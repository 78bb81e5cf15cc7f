//! Integration checks of the theorem-level guarantees on random
//! ensembles, including certification against the *exact* optimum on
//! small instances (stronger than the Lb-relative bounds).

use catbatch::lmatrix::{theorem1_ratio_bound, theorem2_ratio_bound};
use catbatch::CatBatch;
use rigid_baselines::{OfflineBatch, Optimal};
use rigid_dag::gen::{family, LengthDist, ProcDist, TaskSampler};
use rigid_dag::{analysis, StaticSource};
use rigid_sim::engine;
use rigid_sim::offline::run_offline;
use rigid_time::Time;

/// Theorem 1 across the full generator family at a few sizes.
#[test]
fn theorem1_holds_across_families() {
    for seed in 0..4u64 {
        for n in [5usize, 37, 150] {
            for (name, inst) in family(seed, n, &TaskSampler::default_mix(), 8) {
                let r = engine::EngineConfig::new()
                    .run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
                r.schedule.assert_valid(&inst);
                let ratio = r.makespan().ratio(analysis::lower_bound(&inst)).to_f64();
                let bound = theorem1_ratio_bound(inst.len());
                assert!(
                    ratio <= bound + 1e-9,
                    "{name} seed={seed} n={n}: {ratio} > {bound}"
                );
            }
        }
    }
}

/// Theorem 2 with tight equal lengths: ratio within the constant 6.
#[test]
fn theorem2_constant_for_equal_lengths() {
    let sampler = TaskSampler {
        length: LengthDist::Constant(Time::from_ratio(3, 2)),
        procs: ProcDist::Uniform { min: 1, max: 8 },
    };
    for seed in 0..6u64 {
        for (name, inst) in family(seed, 60, &sampler, 8) {
            let r = engine::EngineConfig::new()
                .run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
            let ratio = r.makespan().ratio(analysis::lower_bound(&inst)).to_f64();
            assert!(ratio <= 6.0 + 1e-9, "{name} seed={seed}: {ratio} > 6");
        }
    }
}

/// Theorem 2 with a measured spread: the bound uses the instance's own
/// M/m.
#[test]
fn theorem2_holds_with_spread() {
    let sampler = TaskSampler {
        length: LengthDist::LogUniform {
            min: 0.25,
            max: 16.0,
        },
        procs: ProcDist::PowersOfTwo,
    };
    for seed in 0..6u64 {
        for (name, inst) in family(seed, 80, &sampler, 16) {
            let stats = analysis::stats(&inst);
            let r = engine::EngineConfig::new()
                .run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
            let ratio = r.makespan().ratio(stats.lower_bound).to_f64();
            let bound = theorem2_ratio_bound(stats.min_len, stats.max_len);
            assert!(
                ratio <= bound + 1e-9,
                "{name} seed={seed}: {ratio} > {bound}"
            );
        }
    }
}

/// Certification against the exact optimum (not just Lb): on small
/// random instances, CatBatch's true competitive ratio respects
/// Theorem 1 and the offline batch comparator respects its
/// log2(n+1) + 2 bound.
#[test]
fn exact_ratio_certification() {
    for seed in 0..12u64 {
        let inst = rigid_dag::gen::erdos_dag(seed, 7, 0.3, &TaskSampler::default_mix(), 3);
        let opt = Optimal::default().makespan(&inst);
        let cb = engine::EngineConfig::new()
            .run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new())
            .makespan();
        let cb_ratio = cb.ratio(opt).to_f64();
        assert!(
            cb_ratio <= theorem1_ratio_bound(inst.len()) + 1e-9,
            "seed {seed}: CatBatch true ratio {cb_ratio}"
        );
        let ob = run_offline(&mut OfflineBatch::greedy(), &inst).makespan();
        assert!(
            ob.ratio(opt).to_f64() <= ((inst.len() + 1) as f64).log2() + 2.0 + 1e-9,
            "seed {seed}: offline batch true ratio"
        );
    }
}

/// Lemma 7 dominates every CatBatch run, and each batch obeys Lemma 6.
#[test]
fn lemma6_and_7_on_ensembles() {
    use catbatch::lmatrix::category_length;
    for seed in 20..26u64 {
        let inst = rigid_dag::gen::layered(seed, 8, 8, &TaskSampler::default_mix(), 8);
        let c = analysis::critical_path(inst.graph());
        let mut cb = CatBatch::new();
        let r = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut cb);
        assert!(r.makespan() <= catbatch::analysis::lemma7_bound(&inst));
        for b in cb.batch_history() {
            let bound =
                b.area.mul_int(2).div_int(inst.procs() as i64) + category_length(b.category, c);
            assert!(b.span() <= bound, "seed {seed} batch {}", b.category);
        }
    }
}

/// The makespan can never beat the Graham bound, for any scheduler.
#[test]
fn makespan_at_least_lb_always() {
    for seed in 0..8u64 {
        for (_, inst) in family(seed, 40, &TaskSampler::default_mix(), 8) {
            let lb = analysis::lower_bound(&inst);
            let cb = engine::EngineConfig::new()
                .run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
            assert!(cb.makespan() >= lb);
            let asap = engine::EngineConfig::new().run(
                &mut StaticSource::new(inst.clone()),
                &mut rigid_baselines::asap(),
            );
            assert!(asap.makespan() >= lb);
        }
    }
}
