//! Every scheduler × every workload family: feasibility, bounds
//! ordering, and metric sanity.

use catbatch::{CatBatch, CatBatchBackfill, CatPrio, EstimatedCatBatch};
use rigid_baselines::{asap, ListScheduler, OfflineBatch, Optimal, Priority, ShelfScheduler};
use rigid_dag::gen::{family, independent, TaskSampler};
use rigid_dag::{analysis, StaticSource};
use rigid_sim::offline::run_offline;
use rigid_sim::{engine, metrics, OnlineScheduler};
use rigid_strip::CatBatchStrip;

/// All online schedulers complete all families feasibly.
#[test]
fn online_schedulers_feasible_everywhere() {
    let sampler = TaskSampler::default_mix();
    for seed in 0..3u64 {
        for (name, inst) in family(seed, 60, &sampler, 8) {
            // CatBatch.
            let r = engine::EngineConfig::new()
                .run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
            r.schedule.assert_valid(&inst);
            // Strip.
            let mut cbs = CatBatchStrip::new(inst.procs());
            let r = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut cbs);
            r.schedule.assert_valid(&inst);
            cbs.packing().assert_valid();
            // Every list policy.
            for p in Priority::ALL {
                let r = engine::EngineConfig::new().run(
                    &mut StaticSource::new(inst.clone()),
                    &mut ListScheduler::new(p),
                );
                r.schedule.assert_valid(&inst);
            }
            // Offline batch (both packings).
            run_offline(&mut OfflineBatch::greedy(), &inst);
            run_offline(&mut OfflineBatch::nfdh(), &inst);
            let _ = name;
        }
    }
}

/// The engine asks a scheduler once per decision instant. A static,
/// fault-free run has one instant at time zero and one per completion
/// cohort, so every online scheduler is consulted exactly `batches + 1`
/// times, whatever it starts at each instant.
#[test]
fn one_decision_per_instant() {
    let sampler = TaskSampler::default_mix();
    for seed in 0..3u64 {
        for (name, inst) in family(seed, 60, &sampler, 8) {
            let mut schedulers: Vec<Box<dyn OnlineScheduler>> = vec![
                Box::new(CatBatch::new()),
                Box::new(CatBatchStrip::new(inst.procs())),
                Box::new(CatBatchBackfill::new()),
                Box::new(CatPrio::new()),
                Box::new(EstimatedCatBatch::new(20, seed)),
            ];
            for p in Priority::ALL {
                schedulers.push(Box::new(ListScheduler::new(p)));
            }
            for mut sched in schedulers {
                let r = engine::EngineConfig::new()
                    .run(&mut StaticSource::new(inst.clone()), &mut sched);
                let who = format!("{} on {name} (seed {seed})", sched.name());
                assert_eq!(r.stats.decide_calls, r.stats.batches + 1, "{who}");
                assert_eq!(r.decisions, r.stats.decide_calls, "{who}");
            }
        }
    }
}

/// Ordering: Lb ≤ OPT ≤ every heuristic, on small instances.
#[test]
fn bound_ordering_chain() {
    for seed in 0..8u64 {
        let inst = rigid_dag::gen::erdos_dag(seed, 6, 0.3, &TaskSampler::default_mix(), 3);
        let lb = analysis::lower_bound(&inst);
        let opt = Optimal::default().makespan(&inst);
        assert!(lb <= opt);
        let cb = engine::EngineConfig::new()
            .run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
        let greedy =
            engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut asap());
        assert!(opt <= cb.makespan());
        assert!(opt <= greedy.makespan());
    }
}

/// Metrics are self-consistent: busy + idle area = P × makespan, ratio
/// ≥ 1.
#[test]
fn metrics_consistency() {
    let sampler = TaskSampler::default_mix();
    for seed in 0..4u64 {
        let inst = rigid_dag::gen::layered(seed, 6, 6, &sampler, 8);
        let r = engine::EngineConfig::new()
            .run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
        let m = metrics::metrics(&r.schedule, &inst);
        assert_eq!(
            m.busy_area + m.idle_area,
            m.makespan.mul_int(inst.procs() as i64)
        );
        assert!(m.ratio_to_lb.to_f64() >= 1.0 - 1e-12);
        assert!(m.avg_utilization > 0.0 && m.avg_utilization <= 1.0);
    }
}

/// Shelf schedulers vs CatBatch on independent tasks: CatBatch puts all
/// independent tasks in few batches and stays competitive with the
/// dedicated shelf algorithms.
#[test]
fn independent_task_shootout() {
    let sampler = TaskSampler::default_mix();
    for seed in 0..4u64 {
        let inst = independent(seed, 50, &sampler, 8);
        let lb = analysis::lower_bound(&inst);
        let nfdh = run_offline(&mut ShelfScheduler::nfdh(), &inst).makespan();
        let cb = engine::EngineConfig::new()
            .run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new())
            .makespan();
        assert!(nfdh.ratio(lb).to_f64() <= 3.0 + 1e-9);
        // CatBatch is 2A/P + max-length competitive on one batch of
        // independents — comfortably within 3×Lb as well.
        assert!(cb.ratio(lb).to_f64() <= 3.0 + 1e-9, "seed {seed}");
    }
}

/// The engine's decision counter and release bookkeeping are sane.
#[test]
fn run_result_bookkeeping() {
    let inst = rigid_dag::gen::fork_join(1, 5, 6, &TaskSampler::default_mix(), 8);
    let r =
        engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
    assert_eq!(r.release_times.len(), inst.len());
    assert!(r.decisions > 0);
    assert_eq!(r.procs, 8);
    // Every task of the instance is released under its own id, no
    // earlier than each of its predecessors finishes and no later than
    // it starts.
    let g = inst.graph();
    for id in g.task_ids() {
        let released = r.release_times[id.index()].expect("every task is released");
        for &q in g.preds(id) {
            assert!(r.schedule.placement(q).unwrap().finish <= released);
        }
        assert!(released <= r.schedule.placement(id).unwrap().start);
    }
}
