//! Strip packing ↔ rigid scheduling consistency.

use rigid_dag::gen::{family, TaskSampler};
use rigid_dag::{analysis, StaticSource};
use rigid_sim::engine;
use rigid_strip::CatBatchStrip;

/// The packing and the schedule agree placement by placement: same
/// start (y), same duration (height), same width (procs), and the strip
/// height equals the makespan.
#[test]
fn packing_matches_schedule() {
    let sampler = TaskSampler::default_mix();
    for seed in 0..4u64 {
        for (name, inst) in family(seed, 40, &sampler, 8) {
            let mut cbs = CatBatchStrip::new(inst.procs());
            let result =
                engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut cbs);
            result.schedule.assert_valid(&inst);
            let packing = cbs.packing();
            packing.assert_valid();
            assert_eq!(packing.len(), inst.len(), "{name}");
            assert_eq!(packing.height(), result.makespan(), "{name}");
            for r in packing.rects() {
                let p = result.schedule.placement(r.id).expect("placed");
                assert_eq!(r.y, p.start, "{name}: y mismatch for {}", r.id);
                assert_eq!(r.height, p.finish - p.start, "{name}");
                assert_eq!(r.width, p.procs, "{name}");
                assert!(r.x_end() <= inst.procs(), "{name}");
            }
        }
    }
}

/// Contiguity in the strict sense: at any instant, the x-intervals of
/// concurrently running rectangles are disjoint (this is what rigid
/// scheduling alone does not guarantee). Already implied by the
/// geometric validation; asserted here directly as the integration
/// contract.
#[test]
fn concurrent_rects_have_disjoint_intervals() {
    let inst = rigid_dag::gen::erdos_dag(11, 60, 0.1, &TaskSampler::default_mix(), 8);
    let mut cbs = CatBatchStrip::new(8);
    let _ = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut cbs);
    let rects = cbs.packing().rects();
    for (i, a) in rects.iter().enumerate() {
        for b in &rects[i + 1..] {
            let time_overlap = a.y < b.y_end() && b.y < a.y_end();
            if time_overlap {
                let x_overlap = a.x < b.x_end() && b.x < a.x_end();
                assert!(!x_overlap, "{} and {} overlap", a.id, b.id);
            }
        }
    }
}

/// The price of contiguity is bounded: CatBatch-Strip never exceeds the
/// Lemma 7 bound (NFDH shares the 2·area + max-height shelf guarantee).
#[test]
fn strip_within_lemma7() {
    let sampler = TaskSampler::default_mix();
    for seed in 0..6u64 {
        let inst = rigid_dag::gen::layered(seed, 7, 8, &sampler, 8);
        let bound = catbatch::analysis::lemma7_bound(&inst);
        let mut cbs = CatBatchStrip::new(8);
        let result =
            engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut cbs);
        assert!(
            result.makespan() <= bound,
            "seed {seed}: {} > {bound}",
            result.makespan()
        );
        assert!(result.makespan() >= analysis::lower_bound(&inst));
    }
}
