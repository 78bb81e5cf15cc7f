//! `.rigid` round trips at a scale where a parser that compares every
//! label or edge with every earlier one takes minutes: a generated
//! layered instance of at least 5·10⁴ tasks, and a fork whose 2·10⁴
//! successors all feed one join. No wall time is asserted; a quadratic
//! regression shows as these tests running for minutes.

use rigid_dag::gen::{self, TaskSampler};
use rigid_dag::{format, Instance, TaskGraph, TaskSpec};
use rigid_time::Time;

/// Writes `inst`, parses it back, and checks the task count, the edge
/// count, and every task's time, width and predecessors. `write` emits
/// tasks in id order, so ids survive the round trip; it emits edges by
/// source, so a predecessor list comes back sorted.
fn assert_round_trip(inst: &Instance) {
    let back = format::parse(&format::write(inst)).expect("written instance parses");
    let (g, h) = (inst.graph(), back.graph());
    assert_eq!(back.procs(), inst.procs());
    assert_eq!(h.len(), g.len());
    assert_eq!(h.edge_count(), g.edge_count());
    for id in g.task_ids() {
        let (a, b) = (g.spec(id), h.spec(id));
        assert_eq!((&b.time, b.procs), (&a.time, a.procs), "task {id}");
        let mut preds = g.preds(id).to_vec();
        preds.sort_unstable();
        assert_eq!(h.preds(id), preds, "preds of {id}");
    }
}

#[test]
fn generated_layered_instance_round_trips() {
    let inst = gen::layered(13, 600, 200, &TaskSampler::default_mix(), 64);
    assert!(inst.len() >= 50_000, "only {} tasks", inst.len());
    assert_round_trip(&inst);
}

#[test]
fn wide_fork_join_round_trips() {
    const WIDTH: usize = 20_000;
    let mut g = TaskGraph::new();
    let spec = |t: i64, p: u32| TaskSpec::new(Time::from_int(t), p);
    let fork = g.add_task(spec(1, 4));
    let mids: Vec<_> = (0..WIDTH)
        .map(|i| {
            let m = g.add_task(spec(1 + (i % 3) as i64, 1 + (i % 4) as u32));
            g.add_edge(fork, m);
            m
        })
        .collect();
    let join = g.add_task(spec(2, 4));
    for &m in &mids {
        g.add_edge(m, join);
    }
    let inst = Instance::new(g, 4);
    assert_eq!(inst.graph().succs(fork).len(), WIDTH);
    assert_eq!(inst.graph().preds(join).len(), WIDTH);
    assert_round_trip(&inst);
}
