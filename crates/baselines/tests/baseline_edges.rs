//! Baseline scheduler edge cases.

use rigid_baselines::{
    asap, ListScheduler, OfflineBatch, OfflineList, Optimal, Priority, ShelfScheduler,
};
use rigid_dag::gen::{erdos_dag, independent, TaskSampler};
use rigid_dag::{DagBuilder, Instance, StaticSource, TaskGraph, TaskSpec};
use rigid_sim::engine;
use rigid_sim::offline::run_offline;
use rigid_time::Time;

#[test]
fn fifo_ties_are_stable() {
    // Equal-priority tasks start in release order: with longest-first
    // and all-equal lengths, insertion order decides.
    let inst = DagBuilder::new()
        .task("first", Time::from_int(2), 2)
        .task("second", Time::from_int(2), 2)
        .task("third", Time::from_int(2), 2)
        .build(2);
    let r = engine::EngineConfig::new().run(
        &mut StaticSource::new(inst.clone()),
        &mut ListScheduler::new(Priority::LongestFirst),
    );
    let g = inst.graph();
    let start = |l: &str| {
        r.schedule
            .placement(g.find_by_label(l).unwrap())
            .unwrap()
            .start
    };
    assert!(start("first") < start("second"));
    assert!(start("second") < start("third"));
}

#[test]
fn optimal_respects_node_limit() {
    let inst = erdos_dag(1, 9, 0.1, &TaskSampler::default_mix(), 4);
    let result = std::panic::catch_unwind(|| Optimal { node_limit: 3 }.makespan(&inst));
    assert!(result.is_err(), "a 3-node budget must blow up");
}

#[test]
fn optimal_empty_and_single() {
    let empty = Instance::new(TaskGraph::new(), 2);
    assert_eq!(Optimal::default().makespan(&empty), Time::ZERO);
    let single = DagBuilder::new().task("s", Time::from_int(5), 2).build(4);
    assert_eq!(Optimal::default().makespan(&single), Time::from_int(5));
}

#[test]
fn shelf_single_item_per_shelf_when_full_width() {
    let mut g = TaskGraph::new();
    for k in 1..=3i64 {
        g.add_task(TaskSpec::new(Time::from_int(k), 4));
    }
    let inst = Instance::new(g, 4);
    let s = run_offline(&mut ShelfScheduler::nfdh(), &inst);
    // Three full-width tasks stack: 1+2+3 = 6.
    assert_eq!(s.makespan(), Time::from_int(6));
}

#[test]
fn offline_batch_single_category() {
    // Independent equal tasks share one category: offline batch equals
    // plain greedy packing.
    let inst = independent(
        5,
        12,
        &TaskSampler {
            length: rigid_dag::gen::LengthDist::Constant(Time::from_int(2)),
            procs: rigid_dag::gen::ProcDist::Constant(1),
        },
        4,
    );
    let s = run_offline(&mut OfflineBatch::greedy(), &inst);
    assert_eq!(s.makespan(), Time::from_int(6)); // 12 unit-width / 4 procs × 2
}

#[test]
fn offline_list_priorities_differ_but_all_valid() {
    let inst = erdos_dag(8, 25, 0.2, &TaskSampler::default_mix(), 6);
    let hlf = run_offline(&mut OfflineList::hlf(), &inst).makespan();
    let crit = run_offline(&mut OfflineList::by_criticality(), &inst).makespan();
    let area = run_offline(&mut OfflineList::by_descendant_area(), &inst).makespan();
    let lb = rigid_dag::analysis::lower_bound(&inst);
    for m in [hlf, crit, area] {
        assert!(m >= lb);
        assert!(m <= lb.mul_int(6)); // trivial P bound
    }
}

#[test]
fn asap_on_empty_instance() {
    let empty = Instance::new(TaskGraph::new(), 3);
    let r = engine::EngineConfig::new().run(&mut StaticSource::new(empty), &mut asap());
    assert!(r.schedule.is_empty());
}

#[test]
fn priority_names_unique() {
    let mut names: Vec<&str> = Priority::ALL.iter().map(|p| p.name()).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), Priority::ALL.len());
}

#[test]
fn optimal_beats_or_matches_all_heuristics_exhaustively() {
    // Tight cross-check on a batch of tiny instances: OPT ≤ everything.
    for seed in 100..110u64 {
        let inst = erdos_dag(seed, 6, 0.35, &TaskSampler::default_mix(), 3);
        let opt = Optimal::default().makespan(&inst);
        for priority in Priority::ALL {
            let r = engine::EngineConfig::new().run(
                &mut StaticSource::new(inst.clone()),
                &mut ListScheduler::new(priority),
            );
            assert!(r.makespan() >= opt, "{:?} beat OPT", priority);
        }
        let ob = run_offline(&mut OfflineBatch::greedy(), &inst);
        assert!(ob.makespan() >= opt);
        let hlf = run_offline(&mut OfflineList::hlf(), &inst);
        assert!(hlf.makespan() >= opt);
    }
}
