//! Run traces: a serializable event log of one scheduling run.
//!
//! Traces capture what happened and when — releases, starts, completions
//! — in a form that external tools (plotters, replayers, regression
//! diffing) can consume as JSON via `serde`.

use crate::engine::RunResult;
use rigid_dag::TaskId;
use rigid_time::Time;
use serde::{Deserialize, Serialize};

/// One traced event.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// The task became ready (visible to the scheduler).
    Released {
        /// The task.
        task: TaskId,
        /// When.
        at: Time,
    },
    /// The task started executing.
    Started {
        /// The task.
        task: TaskId,
        /// When.
        at: Time,
        /// Processors used.
        procs: u32,
    },
    /// The task completed.
    Completed {
        /// The task.
        task: TaskId,
        /// When.
        at: Time,
    },
}

impl Event {
    /// The event's instant.
    pub fn at(&self) -> Time {
        match self {
            Event::Released { at, .. }
            | Event::Started { at, .. }
            | Event::Completed { at, .. } => *at,
        }
    }

    /// Sort rank within an instant: releases, then completions, then
    /// starts (matching the engine's processing order at one instant —
    /// completions free processors that the next starts reuse; releases
    /// at an instant precede the decisions taken there).
    fn rank(&self) -> u8 {
        match self {
            Event::Completed { .. } => 0,
            Event::Released { .. } => 1,
            Event::Started { .. } => 2,
        }
    }
}

/// A complete, time-ordered run trace.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// Builds the trace of a finished run.
    pub fn from_run(result: &RunResult) -> Self {
        let mut events = Vec::with_capacity(result.schedule.len() * 3);
        for (i, &at) in result.release_times.iter().enumerate() {
            if let Some(at) = at {
                events.push(Event::Released {
                    task: TaskId(i as u32),
                    at,
                });
            }
        }
        for p in result.schedule.placements() {
            events.push(Event::Started {
                task: p.task,
                at: p.start,
                procs: p.procs,
            });
            events.push(Event::Completed {
                task: p.task,
                at: p.finish,
            });
        }
        events.sort_by(|a, b| {
            a.at()
                .cmp(&b.at())
                .then(a.rank().cmp(&b.rank()))
                .then_with(|| task_of(a).cmp(&task_of(b)))
        });
        Trace { events }
    }

    /// The events in time order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events (3 per task: release, start, completion).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consistency check: every task is released before it starts and
    /// starts before it completes.
    pub fn is_causal(&self) -> bool {
        use std::collections::HashMap;
        #[derive(Default)]
        struct St {
            released: bool,
            started: bool,
            completed: bool,
        }
        let mut st: HashMap<TaskId, St> = HashMap::new();
        for e in &self.events {
            let entry = st.entry(task_of(e)).or_default();
            match e {
                Event::Released { .. } => {
                    if entry.released {
                        return false;
                    }
                    entry.released = true;
                }
                Event::Started { .. } => {
                    if !entry.released || entry.started {
                        return false;
                    }
                    entry.started = true;
                }
                Event::Completed { .. } => {
                    if !entry.started || entry.completed {
                        return false;
                    }
                    entry.completed = true;
                }
            }
        }
        st.values().all(|s| s.completed)
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serialization cannot fail")
    }

    /// Parses a JSON trace.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

fn task_of(e: &Event) -> TaskId {
    match e {
        Event::Released { task, .. }
        | Event::Started { task, .. }
        | Event::Completed { task, .. } => *task,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::gen::{erdos_dag, TaskSampler};
    use rigid_dag::{DagBuilder, StaticSource};

    fn run_chain() -> RunResult {
        let inst = DagBuilder::new()
            .task("a", Time::from_int(1), 1)
            .task("b", Time::from_int(2), 1)
            .edge("a", "b")
            .build(2);
        crate::engine::EngineConfig::new().run(&mut StaticSource::new(inst), &mut greedy())
    }

    #[test]
    fn trace_is_ordered_and_causal() {
        let trace = Trace::from_run(&run_chain());
        assert_eq!(trace.len(), 6);
        assert!(trace.is_causal());
        for w in trace.events().windows(2) {
            assert!(w[0].at() <= w[1].at());
        }
    }

    #[test]
    fn json_roundtrip() {
        let trace = Trace::from_run(&run_chain());
        let json = trace.to_json();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(back.events(), trace.events());
    }

    #[test]
    fn traces_of_random_runs_are_causal() {
        for seed in 0..5u64 {
            let inst = erdos_dag(seed, 25, 0.2, &TaskSampler::default_mix(), 4);
            let r =
                crate::engine::EngineConfig::new().run(&mut StaticSource::new(inst), &mut greedy());
            assert!(Trace::from_run(&r).is_causal(), "seed {seed}");
        }
    }

    fn greedy() -> impl crate::OnlineScheduler {
        struct G(Vec<(TaskId, u32)>);
        impl crate::OnlineScheduler for G {
            fn name(&self) -> &'static str {
                "g"
            }
            fn on_release(&mut self, t: &rigid_dag::ReleasedTask, _: Time) {
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
        G(Vec::new())
    }
}
