//! Online ASAP list scheduling for rigid task DAGs (Graham \[18\] extended
//! to rigid tasks by Li \[25\]).
//!
//! At every decision point the scheduler scans its ready list in priority
//! order and starts every task that fits in the free processors. It never
//! idles when something fits — which is exactly why it falls into the
//! paper's Figure 1 trap and is `Θ(P)`-competitive in the worst case.

use crate::priority::Priority;
use rigid_dag::{ReleasedTask, TaskId};
use rigid_sim::{FailureResponse, OnlineScheduler};
use rigid_time::Time;
use std::collections::VecDeque;

/// One entry in the ready list.
struct Ready {
    key: crate::priority::PriorityKey,
    id: TaskId,
    procs: u32,
}

/// The ASAP greedy list scheduler.
pub struct ListScheduler {
    priority: Priority,
    /// Ready tasks kept sorted best-first; FIFO among equal keys
    /// (insertion keeps stability). A deque so that the common decide
    /// pattern — take a run of tasks from the best end — is O(1) per
    /// start instead of a full-list shift.
    ready: VecDeque<Ready>,
    /// Keys of released tasks, kept so a failed task can re-enter the
    /// ready list with its original priority. Task ids are dense run
    /// indices, so a plain column beats a hash map: the per-release
    /// write is one store instead of a hash + probe on a table that
    /// grows with the instance.
    keys: Vec<(crate::priority::PriorityKey, u32)>,
}

impl ListScheduler {
    /// Creates a list scheduler with the given priority policy.
    pub fn new(priority: Priority) -> Self {
        ListScheduler {
            priority,
            ready: VecDeque::new(),
            keys: Vec::new(),
        }
    }

    /// The policy in use.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    fn insert_sorted(&mut self, id: TaskId, procs: u32, key: crate::priority::PriorityKey) {
        // Position before the first strictly-worse entry; equal keys keep
        // release order (stable FIFO tiebreak). The list is sorted
        // best-first, so the strictly-worse entries form a suffix and a
        // backward scan finds the same position as a forward one without
        // walking the better prefix — O(1) for FIFO, where keys are equal
        // and the scan stops at the end immediately.
        let mut pos = self.ready.len();
        while pos > 0 && key.better_than(&self.ready[pos - 1].key) {
            pos -= 1;
        }
        self.ready.insert(pos, Ready { key, id, procs });
    }
}

impl OnlineScheduler for ListScheduler {
    fn name(&self) -> &'static str {
        match self.priority {
            Priority::Fifo => "list-fifo",
            Priority::LongestFirst => "list-longest",
            Priority::ShortestFirst => "list-shortest",
            Priority::MostProcsFirst => "list-most-procs",
            Priority::FewestProcsFirst => "list-fewest-procs",
            Priority::LargestAreaFirst => "list-largest-area",
        }
    }

    fn on_release(&mut self, task: &ReleasedTask, _now: Time) {
        let key = self.priority.key(&task.spec);
        let idx = task.id.index();
        if idx >= self.keys.len() {
            self.keys
                .resize(idx + 1, (crate::priority::PriorityKey::Index, 0));
        }
        self.keys[idx] = (key, task.spec.procs);
        self.insert_sorted(task.id, task.spec.procs, key);
    }

    fn on_complete(&mut self, _task: TaskId, _now: Time) {}

    fn decide_into(&mut self, _now: Time, mut free: u32, out: &mut Vec<TaskId>) {
        // Every rigid task needs ≥ 1 processor, so a saturated machine
        // (or an empty list) can never yield a start — skip the scan,
        // and stop scanning the moment the machine saturates mid-pass:
        // the tail could only have been skipped anyway, so the started
        // set and the remaining order are identical to a full scan.
        if free == 0 || self.ready.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.ready.len() && free > 0 {
            if self.ready[i].procs <= free {
                free -= self.ready[i].procs;
                let r = self.ready.remove(i).expect("index in range");
                out.push(r.id);
            } else {
                i += 1;
            }
        }
    }

    fn on_failure(&mut self, task: TaskId, _now: Time) -> FailureResponse {
        // ASAP never gives up: the failed task re-enters the ready list
        // with its original priority and restarts as soon as it fits.
        let (key, procs) = *self
            .keys
            .get(task.index())
            .expect("failed task was released to us");
        self.insert_sorted(task, procs, key);
        FailureResponse::Retry
    }
}

/// Convenience: a fresh FIFO ASAP scheduler (the canonical strawman).
pub fn asap() -> ListScheduler {
    ListScheduler::new(Priority::Fifo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::paper::intro_example;
    use rigid_dag::{analysis, DagBuilder, StaticSource};
    use rigid_sim::engine;

    #[test]
    fn list_schedules_chain_tightly() {
        let inst = DagBuilder::new()
            .task("a", Time::from_int(1), 1)
            .task("b", Time::from_int(2), 2)
            .edge("a", "b")
            .build(4);
        let result =
            engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut asap());
        result.schedule.assert_valid(&inst);
        assert_eq!(result.makespan(), Time::from_int(3));
    }

    /// Figure 1: on the intro example every ASAP policy has makespan
    /// ≈ P(1 + ε) while the lower bound is ≈ 1 — the Θ(P) trap.
    #[test]
    fn figure1_asap_trap() {
        let p = 8u32;
        let eps = Time::from_ratio(1, 1000);
        let inst = intro_example(p, eps);
        for priority in Priority::ALL {
            let mut sched = ListScheduler::new(priority);
            let result =
                engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut sched);
            result.schedule.assert_valid(&inst);
            // ASAP starts C_k immediately; B_k must wait for C_k to end:
            // makespan ≥ P · 1 (each of the P unit-length C's serializes
            // the ladder).
            assert!(
                result.makespan() >= Time::from_int(p as i64),
                "{}: makespan {} unexpectedly small",
                sched.name(),
                result.makespan()
            );
        }
        // The lower bound stays ≈ 1 + small.
        let lb = analysis::lower_bound(&inst);
        assert!(lb < Time::from_millis(1, 200));
    }

    #[test]
    fn priorities_order_starts() {
        // Two ready tasks, only one fits at a time: longest-first picks
        // the long one first; shortest-first the short one.
        let inst = DagBuilder::new()
            .task("short", Time::from_int(1), 2)
            .task("long", Time::from_int(5), 2)
            .build(2);
        let r_long = engine::EngineConfig::new().run(
            &mut StaticSource::new(inst.clone()),
            &mut ListScheduler::new(Priority::LongestFirst),
        );
        let g = inst.graph();
        let long_id = g.find_by_label("long").unwrap();
        assert_eq!(
            r_long.schedule.placement(long_id).unwrap().start,
            Time::ZERO
        );
        let r_short = engine::EngineConfig::new().run(
            &mut StaticSource::new(inst.clone()),
            &mut ListScheduler::new(Priority::ShortestFirst),
        );
        let short_id = g.find_by_label("short").unwrap();
        assert_eq!(
            r_short.schedule.placement(short_id).unwrap().start,
            Time::ZERO
        );
    }

    /// A failed task re-enters the ready list and re-runs in full with
    /// its original (t, p).
    #[test]
    fn failed_task_is_requeued() {
        use rigid_sim::fault::{Attempt, FaultModel};
        use rigid_sim::EngineConfig;

        struct FailFirst;
        impl FaultModel for FailFirst {
            fn on_start(
                &mut self,
                _task: TaskId,
                attempt: u32,
                _now: Time,
                nominal: Time,
                _procs: u32,
            ) -> Attempt {
                if attempt == 0 {
                    Attempt::Fail {
                        after: nominal.div_int(4),
                    }
                } else {
                    Attempt::Complete
                }
            }
        }

        let inst = DagBuilder::new()
            .task("a", Time::from_int(2), 1)
            .task("b", Time::from_int(1), 2)
            .edge("a", "b")
            .build(4);
        let result = EngineConfig::new()
            .faults(&mut FailFirst)
            .try_run(&mut StaticSource::new(inst.clone()), &mut asap())
            .expect("asap retries forever");
        result.schedule.assert_valid(&inst);
        assert_eq!(result.faults.failures, 2);
        // a fails at 0.5, reruns [0.5, 2.5]; b releases at 2.5, fails at
        // 2.75, reruns [2.75, 3.75].
        assert_eq!(result.makespan(), Time::from_ratio(15, 4));
    }

    #[test]
    fn never_idles_when_fit_exists() {
        // With plenty of free processors, everything ready starts at once.
        let inst = DagBuilder::new()
            .task("a", Time::from_int(1), 1)
            .task("b", Time::from_int(2), 1)
            .task("c", Time::from_int(3), 1)
            .build(8);
        let result =
            engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut asap());
        for p in result.schedule.placements() {
            assert_eq!(p.start, Time::ZERO);
        }
    }
}
