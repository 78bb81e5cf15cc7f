//! Integration tests for the post-paper extensions: §7 heuristics under
//! adversarial pressure, strip scheduling vs the adaptive adversary, the
//! `.rigid` format across crates, and wavefront workloads end to end.

use catbatch::{CatBatch, CatBatchBackfill, CatPrio, EstimatedCatBatch};
use rigid_dag::gen::{wavefront_2d, wavefront_triangular, TaskSampler};
use rigid_dag::{analysis, format, StaticSource};
use rigid_lowerbounds::chains::GadgetParams;
use rigid_lowerbounds::zgraph::{lemma10_bound, ZAdversary};
use rigid_sim::{engine, OnlineScheduler};
use rigid_strip::CatBatchStrip;
use rigid_time::Time;

/// The adaptive adversary also binds the new heuristics and the strip
/// variant — they are online algorithms, so Lemma 10 applies.
#[test]
fn adversary_binds_extensions() {
    let params = GadgetParams::new(3, 2, Time::from_ratio(1, 48));
    let schedulers: Vec<Box<dyn OnlineScheduler>> = vec![
        Box::new(CatBatchBackfill::new()),
        Box::new(CatPrio::new()),
        Box::new(EstimatedCatBatch::new(15, 3)),
        Box::new(CatBatchStrip::new(3)),
    ];
    for mut sched in schedulers {
        let mut adv = ZAdversary::new(params);
        let result = engine::EngineConfig::new().run(&mut adv, sched.as_mut());
        let inst = adv.committed_instance();
        result.schedule.assert_valid(&inst);
        assert!(
            result.makespan() >= lemma10_bound(&params),
            "{} beat Lemma 10 — impossible",
            sched.name()
        );
    }
}

/// Backfilling keeps the Theorem 1 guarantee even against the adversary
/// (same Lemma 7 argument as plain CatBatch).
#[test]
fn backfill_guarantee_against_adversary() {
    let params = GadgetParams::new(4, 2, Time::from_ratio(1, 64));
    let mut adv = ZAdversary::new(params);
    let mut bf = CatBatchBackfill::new();
    let result = engine::EngineConfig::new().run(&mut adv, &mut bf);
    let inst = adv.committed_instance();
    result.schedule.assert_valid(&inst);
    let ratio = result
        .makespan()
        .ratio(analysis::lower_bound(&inst))
        .to_f64();
    assert!(ratio <= (inst.len() as f64).log2() + 3.0 + 1e-9);
}

/// Wavefront workloads run feasibly through every paper-side scheduler
/// and respect the Theorem 1 bound.
#[test]
fn wavefronts_end_to_end() {
    let sampler = TaskSampler::default_mix();
    for inst in [
        wavefront_2d(5, 8, 8, &sampler, 8),
        wavefront_triangular(5, 10, &sampler, 8),
    ] {
        let bound = (inst.len() as f64).log2() + 3.0;
        for mut sched in [
            Box::new(CatBatch::new()) as Box<dyn OnlineScheduler>,
            Box::new(CatBatchBackfill::new()),
        ] {
            let r = engine::EngineConfig::new()
                .run(&mut StaticSource::new(inst.clone()), sched.as_mut());
            r.schedule.assert_valid(&inst);
            let ratio = r.makespan().ratio(analysis::lower_bound(&inst)).to_f64();
            assert!(ratio <= bound + 1e-9);
        }
        // Peak ideal parallelism of a w×w wavefront is about w.
        let peak = analysis::peak_width(inst.graph());
        assert!(peak >= 1);
    }
}

/// The `.rigid` format round-trips paper gadgets exactly and the parsed
/// instance schedules identically to the original.
#[test]
fn format_roundtrip_preserves_scheduling() {
    let inst = rigid_dag::paper::figure3();
    let text = format::write(&inst);
    let parsed = format::parse(&text).expect("roundtrip parse");
    let r1 = engine::EngineConfig::new().run(&mut StaticSource::new(inst), &mut CatBatch::new());
    let r2 = engine::EngineConfig::new().run(&mut StaticSource::new(parsed), &mut CatBatch::new());
    assert_eq!(r1.makespan(), r2.makespan());
    assert_eq!(r1.makespan(), Time::from_millis(15, 200));
}

/// Generated instances survive the format and schedule identically.
#[test]
fn generated_instances_roundtrip() {
    let sampler = TaskSampler::default_mix();
    for seed in 0..4u64 {
        let inst = rigid_dag::gen::erdos_dag(seed, 30, 0.15, &sampler, 8);
        let text = format::write(&inst);
        let parsed = format::parse(&text).expect("parse generated");
        assert_eq!(parsed.len(), inst.len());
        let r1 =
            engine::EngineConfig::new().run(&mut StaticSource::new(inst), &mut CatBatch::new());
        let r2 =
            engine::EngineConfig::new().run(&mut StaticSource::new(parsed), &mut CatBatch::new());
        assert_eq!(r1.makespan(), r2.makespan(), "seed {seed}");
    }
}

/// Traces and processor assignments are consistent for every scheduler.
#[test]
fn traces_and_assignments_for_all_schedulers() {
    let inst = rigid_dag::gen::layered(77, 6, 6, &TaskSampler::default_mix(), 8);
    let schedulers: Vec<Box<dyn OnlineScheduler>> = vec![
        Box::new(CatBatch::new()),
        Box::new(CatBatchBackfill::new()),
        Box::new(CatPrio::new()),
        Box::new(CatBatchStrip::new(8)),
    ];
    for mut sched in schedulers {
        let r =
            engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), sched.as_mut());
        let trace = rigid_sim::trace::Trace::from_run(&r);
        assert!(trace.is_causal(), "{}", sched.name());
        assert_eq!(trace.len(), inst.len() * 3);
        let a = rigid_sim::assign::assign(&r.schedule);
        assert!(a.validate(&r.schedule), "{}", sched.name());
    }
}

/// Backfilling is not instance-wise dominant — pulling a task forward
/// can change a later batch's greedy packing (a Graham anomaly) — but it
/// (a) always keeps the Lemma 7 guarantee and (b) wins or ties on the
/// large majority of the ensemble.
#[test]
fn backfill_mostly_wins_and_always_keeps_guarantee() {
    let sampler = TaskSampler::default_mix();
    let mut wins_or_ties = 0usize;
    let mut total = 0usize;
    for seed in 0..10u64 {
        for (name, inst) in rigid_dag::gen::family(seed, 60, &sampler, 8) {
            let plain = engine::EngineConfig::new()
                .run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
            let bf = engine::EngineConfig::new().run(
                &mut StaticSource::new(inst.clone()),
                &mut CatBatchBackfill::new(),
            );
            assert!(
                bf.makespan() <= catbatch::analysis::lemma7_bound(&inst),
                "{name} seed {seed}: backfill broke Lemma 7"
            );
            total += 1;
            if bf.makespan() <= plain.makespan() {
                wins_or_ties += 1;
            }
        }
    }
    assert!(
        wins_or_ties * 10 >= total * 8,
        "backfill won/tied only {wins_or_ties}/{total}"
    );
}

/// The checked-in sample instance (`assets/figure3.rigid`) parses to the
/// paper example and schedules to 15.2 — the full file-based workflow.
#[test]
fn asset_figure3_file_roundtrip() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../assets/figure3.rigid");
    let text = std::fs::read_to_string(path).expect("asset present");
    let inst = format::parse(&text).expect("asset parses");
    assert_eq!(inst.len(), 11);
    assert_eq!(inst.procs(), 4);
    let r = engine::EngineConfig::new().run(&mut StaticSource::new(inst), &mut CatBatch::new());
    assert_eq!(r.makespan(), Time::from_millis(15, 200));
}

/// Large-scale smoke test (ignored by default; run with --ignored):
/// 50k-task layered instance through CatBatch in one engine run.
#[test]
#[ignore = "large-scale stress; run explicitly with -- --ignored"]
fn stress_fifty_thousand_tasks() {
    let inst = rigid_dag::gen::layered(1, 500, 100, &TaskSampler::default_mix(), 128);
    assert!(inst.len() > 20_000);
    let r =
        engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
    r.schedule.assert_valid(&inst);
    let ratio = r.makespan().ratio(analysis::lower_bound(&inst)).to_f64();
    assert!(ratio <= (inst.len() as f64).log2() + 3.0 + 1e-9);
}
