//! Engine edge cases: one-processor platforms, instant storms, timed
//! arrival interleavings, Gantt/assign/trace consistency.

use rigid_dag::gen::{self, TaskSampler};
use rigid_dag::source::TimedSource;
use rigid_dag::{DagBuilder, ReleasedTask, StaticSource, TaskId, TaskSpec};
use rigid_sim::gantt::{render, GanttOptions};
use rigid_sim::{assign, engine, metrics, trace::Trace, OnlineScheduler, Schedule};
use rigid_time::Time;
use std::collections::BTreeMap;

/// Minimal greedy used throughout.
struct Greedy(Vec<(TaskId, u32)>);
impl Greedy {
    fn new() -> Self {
        Greedy(Vec::new())
    }
}
impl OnlineScheduler for Greedy {
    fn name(&self) -> &'static str {
        "greedy"
    }
    fn on_release(&mut self, t: &ReleasedTask, _: Time) {
        self.0.push((t.id, t.spec.procs));
    }
    fn on_complete(&mut self, _: TaskId, _: Time) {}
    fn decide_into(&mut self, _: Time, mut free: u32, out: &mut Vec<TaskId>) {
        self.0.retain(|&(id, p)| {
            if p <= free {
                free -= p;
                out.push(id);
                false
            } else {
                true
            }
        });
    }
}

#[test]
fn single_processor_serializes_everything() {
    let inst = DagBuilder::new()
        .task("a", Time::from_int(1), 1)
        .task("b", Time::from_int(2), 1)
        .task("c", Time::from_int(3), 1)
        .build(1);
    let r =
        engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut Greedy::new());
    r.schedule.assert_valid(&inst);
    assert_eq!(r.makespan(), Time::from_int(6));
    // Usage never exceeds 1 and never has overlap.
    for (_, used) in r.schedule.usage_profile() {
        assert!(used <= 1);
    }
}

#[test]
fn many_tasks_completing_at_one_instant() {
    // 16 equal tasks on 16 processors: one giant completion storm.
    let mut g = rigid_dag::TaskGraph::new();
    for _ in 0..16 {
        g.add_task(TaskSpec::new(Time::from_int(2), 1));
    }
    let tail = g.add_task(TaskSpec::new(Time::ONE, 16));
    for id in g.task_ids().take(16).collect::<Vec<_>>() {
        if id != tail {
            g.add_edge(id, tail);
        }
    }
    let inst = rigid_dag::Instance::new(g, 16);
    let r =
        engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut Greedy::new());
    r.schedule.assert_valid(&inst);
    assert_eq!(r.makespan(), Time::from_int(3));
    assert_eq!(r.release_times[tail.index()], Some(Time::from_int(2)));
}

#[test]
fn timed_arrivals_interleave_with_completions() {
    // Arrivals at 0, 1, 2, 3 of unit tasks on one processor: back-to-back.
    let jobs: Vec<(Time, TaskSpec)> = (0..4)
        .map(|k| (Time::from_int(k), TaskSpec::new(Time::ONE, 1)))
        .collect();
    let mut src = TimedSource::new(jobs, 1);
    let r = engine::EngineConfig::new().run(&mut src, &mut Greedy::new());
    assert_eq!(r.makespan(), Time::from_int(4));
    for k in 0..4u32 {
        assert_eq!(
            r.schedule.placement(TaskId(k)).unwrap().start,
            Time::from_int(k as i64)
        );
    }
}

#[test]
fn timed_arrival_exactly_at_completion() {
    // A completion at t=2 and an arrival at t=2 must land in the same
    // decision round (the arrival starts immediately).
    let jobs = vec![
        (Time::ZERO, TaskSpec::new(Time::from_int(2), 1)),
        (Time::from_int(2), TaskSpec::new(Time::ONE, 1)),
    ];
    let mut src = TimedSource::new(jobs, 1);
    let r = engine::EngineConfig::new().run(&mut src, &mut Greedy::new());
    assert_eq!(
        r.schedule.placement(TaskId(1)).unwrap().start,
        Time::from_int(2)
    );
    assert_eq!(r.makespan(), Time::from_int(3));
}

#[test]
fn gantt_assign_trace_agree() {
    let inst = rigid_dag::gen::layered(13, 5, 5, &rigid_dag::gen::TaskSampler::default_mix(), 6);
    let r =
        engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut Greedy::new());
    // Gantt renders one row per processor plus the axis.
    let gantt = render(&r.schedule, inst.graph(), &GanttOptions::default());
    assert_eq!(gantt.lines().count(), 7);
    // Assignment covers every task with the right cardinality.
    let a = assign::assign(&r.schedule);
    assert!(a.validate(&r.schedule));
    for p in r.schedule.placements() {
        assert_eq!(a.processors(p.task).unwrap().len(), p.procs as usize);
    }
    // Trace has exactly 3 events per task and is causal.
    let t = Trace::from_run(&r);
    assert_eq!(t.len(), inst.len() * 3);
    assert!(t.is_causal());
}

#[test]
fn idle_intervals_of_deliberate_wait() {
    // A scheduler that refuses to overlap tasks: idle gaps appear.
    struct OneAtATime {
        queue: Vec<TaskId>,
        running: bool,
    }
    impl OnlineScheduler for OneAtATime {
        fn name(&self) -> &'static str {
            "one-at-a-time"
        }
        fn on_release(&mut self, t: &ReleasedTask, _: Time) {
            self.queue.push(t.id);
        }
        fn on_complete(&mut self, _: TaskId, _: Time) {
            self.running = false;
        }
        fn decide_into(&mut self, _: Time, _: u32, out: &mut Vec<TaskId>) {
            if !self.running && !self.queue.is_empty() {
                self.running = true;
                out.push(self.queue.remove(0));
            }
        }
    }
    let inst = DagBuilder::new()
        .task("x", Time::from_int(1), 1)
        .task("y", Time::from_int(1), 1)
        .build(4);
    let r = engine::EngineConfig::new().run(
        &mut StaticSource::new(inst.clone()),
        &mut OneAtATime {
            queue: Vec::new(),
            running: false,
        },
    );
    // Sequential even though they could overlap; no full idle gaps
    // though (one task always runs).
    assert_eq!(r.makespan(), Time::from_int(2));
    assert!(metrics::idle_intervals(&r.schedule).is_empty());
}

#[test]
fn decisions_counter_reflects_consultations() {
    let inst = DagBuilder::new().task("a", Time::ONE, 1).build(1);
    let r = engine::EngineConfig::new().run(&mut StaticSource::new(inst), &mut Greedy::new());
    // One decision at time zero (starts a) and one at its completion.
    assert_eq!(r.decisions, 2);
}

/// The usage profile as a map of every start and finish instant builds
/// it: the reference for the sorted-merge sweep behind
/// `Schedule::usage_profile` and `Schedule::validate`.
fn usage_profile_by_map(schedule: &Schedule) -> Vec<(Time, u64)> {
    let mut deltas: BTreeMap<Time, i64> = BTreeMap::new();
    for p in schedule.placements() {
        *deltas.entry(p.start).or_insert(0) += i64::from(p.procs);
        *deltas.entry(p.finish).or_insert(0) -= i64::from(p.procs);
    }
    let mut cur = 0;
    deltas
        .into_iter()
        .map(|(t, d)| {
            cur += d;
            (t, cur as u64)
        })
        .collect()
}

#[test]
fn usage_profile_matches_map_construction() {
    let mut instances = vec![("figure3", rigid_dag::paper::figure3())];
    instances.extend(gen::family(7, 200, &TaskSampler::default_mix(), 16));
    let mut zero_net = 0;
    for (name, inst) in instances {
        let r = engine::EngineConfig::new()
            .run(&mut StaticSource::new(inst.clone()), &mut Greedy::new());
        r.schedule.assert_valid(&inst);
        let profile = r.schedule.usage_profile();
        assert_eq!(profile, usage_profile_by_map(&r.schedule), "{name}");
        // Instants where the finishes and starts cancel out stay points.
        zero_net += profile.windows(2).filter(|w| w[0].1 == w[1].1).count();
    }
    assert!(
        zero_net > 0,
        "no instance has an instant whose deltas cancel"
    );
}
