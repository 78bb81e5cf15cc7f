//! API-surface and edge-case tests for the DAG substrate.

use rigid_dag::analysis::{self, peak_width, width_profile};
use rigid_dag::gen::{self, LengthDist, ProcDist, TaskSampler};
use rigid_dag::source::TimedSource;
use rigid_dag::{DagBuilder, Instance, InstanceSource, StaticSource, TaskGraph, TaskSpec};
use rigid_time::Time;

#[test]
fn empty_graph_degenerates_cleanly() {
    let g = TaskGraph::new();
    assert!(g.is_empty());
    assert!(g.sources().is_empty());
    assert!(g.sinks().is_empty());
    assert_eq!(g.topological_order(), Some(vec![]));
    assert_eq!(analysis::critical_path(&g), Time::ZERO);
    assert_eq!(analysis::area(&g), Time::ZERO);
    assert_eq!(analysis::depth(&g), 0);
    assert!(analysis::critical_path_tasks(&g).is_empty());
    assert!(width_profile(&g).is_empty());
    assert_eq!(peak_width(&g), 0);
}

#[test]
fn single_task_instance() {
    let inst = DagBuilder::new()
        .task("only", Time::from_millis(1, 250), 3)
        .build(4);
    let s = analysis::stats(&inst);
    assert_eq!(s.n, 1);
    assert_eq!(s.critical_path, Time::from_millis(1, 250));
    assert_eq!(s.min_len, s.max_len);
    assert_eq!(s.area, Time::from_millis(3, 750));
    assert_eq!(peak_width(inst.graph()), 3);
}

#[test]
fn dot_export_unlabeled_tasks() {
    let mut g = TaskGraph::new();
    let a = g.add_task(TaskSpec::new(Time::ONE, 1));
    let b = g.add_task(TaskSpec::new(Time::ONE, 1));
    g.add_edge(a, b);
    let dot = rigid_dag::io::to_dot(&Instance::new(g, 2));
    assert!(dot.contains("T0"));
    assert!(dot.contains("n0 -> n1;"));
}

#[test]
fn length_distributions_statistics() {
    let mut rng = gen::seeded_rng(17);
    // Uniform [1, 3]: sample mean near 2.
    let d = LengthDist::Uniform { min: 1.0, max: 3.0 };
    let mean: f64 = (0..2_000).map(|_| d.sample(&mut rng).to_f64()).sum::<f64>() / 2_000.0;
    assert!((mean - 2.0).abs() < 0.1, "uniform mean {mean}");
    // Choice picks only given values.
    let choices = vec![Time::ONE, Time::from_int(4)];
    let d = LengthDist::Choice(choices.clone());
    for _ in 0..100 {
        assert!(choices.contains(&d.sample(&mut rng)));
    }
}

#[test]
fn proc_uniform_respects_platform() {
    let mut rng = gen::seeded_rng(3);
    let d = ProcDist::Uniform { min: 3, max: 100 };
    for _ in 0..200 {
        let p = d.sample(&mut rng, 6);
        assert!((3..=6).contains(&p));
    }
}

#[test]
fn family_instances_are_deterministic() {
    let s = TaskSampler::default_mix();
    let a = gen::family(41, 50, &s, 8);
    let b = gen::family(41, 50, &s, 8);
    assert_eq!(a.len(), b.len());
    for ((na, ia), (nb, ib)) in a.iter().zip(b.iter()) {
        assert_eq!(na, nb);
        assert_eq!(ia.len(), ib.len());
        assert_eq!(ia.graph().edge_count(), ib.graph().edge_count());
    }
}

#[test]
fn timed_source_all_at_zero_equals_independent() {
    let specs: Vec<(Time, TaskSpec)> = (1..=5)
        .map(|k| (Time::ZERO, TaskSpec::new(Time::from_int(k), 1)))
        .collect();
    let mut src = TimedSource::new(specs, 4);
    assert_eq!(src.initial().len(), 5);
    assert!(!src.expects_more());
    assert_eq!(src.next_timed_release(Time::ZERO), None);
}

#[test]
fn static_source_exposes_instance() {
    let inst = DagBuilder::new().task("x", Time::ONE, 1).build(1);
    let src = StaticSource::new(inst.clone());
    assert_eq!(src.instance().len(), 1);
}

#[test]
fn format_rejects_empty_document() {
    assert!(rigid_dag::format::parse("").is_err());
    // procs alone is a valid (empty) instance.
    let inst = rigid_dag::format::parse("procs 3\n").unwrap();
    assert!(inst.is_empty());
    assert_eq!(inst.procs(), 3);
}

#[test]
fn criticality_span_equals_task_time() {
    let inst = gen::erdos_dag(9, 20, 0.2, &TaskSampler::default_mix(), 8);
    let crit = analysis::criticalities(inst.graph());
    for (id, spec) in inst.graph().tasks() {
        assert_eq!(crit[id.index()].span(), spec.time);
    }
}

#[test]
fn intro_example_p1_degenerates() {
    // P = 1: B needs all (= 1) processors; structure still valid.
    let inst = rigid_dag::paper::intro_example(1, Time::from_ratio(1, 10));
    assert_eq!(inst.len(), 3);
    assert_eq!(inst.procs(), 1);
}

#[test]
fn peak_width_of_independent_tasks_is_total() {
    let inst = gen::independent(
        3,
        6,
        &TaskSampler {
            length: LengthDist::Constant(Time::ONE),
            procs: ProcDist::Constant(2),
        },
        16,
    );
    // All six run concurrently in the unbounded ASAP schedule.
    assert_eq!(peak_width(inst.graph()), 12);
}
