//! Online criticality tracking (the paper's Definition 1 and Lemma 1).
//!
//! The criticality of a task is the interval `(s∞, f∞)` in which it would
//! run under an ASAP schedule with unboundedly many processors:
//! `s∞ = max f∞ over predecessors` (0 at roots) and `f∞ = s∞ + t`.
//!
//! Crucially, criticality is computable **online**: when a task is
//! released, its predecessors have all completed and were themselves
//! released earlier, so their `f∞` values are already known. The
//! [`CriticalityTracker`] maintains exactly that knowledge, which is all
//! the CatBatch algorithm ever needs from the graph.

use rigid_dag::analysis::Criticality;
use rigid_dag::{ReleasedTask, TaskId};
use rigid_time::Time;

/// Incrementally computes criticalities as tasks are revealed.
///
/// `f∞` lives in a dense column indexed by [`TaskId::index`], grown to
/// the largest id seen, so registering and looking up a task are plain
/// index operations.
#[derive(Debug, Default)]
pub struct CriticalityTracker {
    finish: Vec<Option<Time>>,
    registered: usize,
}

impl CriticalityTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        CriticalityTracker::default()
    }

    /// Registers a newly released task and returns its criticality.
    ///
    /// # Panics
    /// Panics if a predecessor was never registered (an online-model
    /// violation: tasks are released only after all predecessors complete,
    /// and predecessors are released before they run), or if the task was
    /// already registered.
    pub fn on_release(&mut self, task: &ReleasedTask) -> Criticality {
        let s_inf = task
            .preds
            .iter()
            .map(|&p| {
                self.finish_of(p)
                    .unwrap_or_else(|| panic!("predecessor {p} of {} unknown", task.id))
            })
            .max()
            .unwrap_or(Time::ZERO);
        let crit = Criticality {
            start: s_inf,
            finish: s_inf + task.spec.time,
        };
        let i = task.id.index();
        if i >= self.finish.len() {
            self.finish.resize(i + 1, None);
        }
        let dup = self.finish[i].replace(crit.finish);
        assert!(dup.is_none(), "task {} released twice", task.id);
        self.registered += 1;
        crit
    }

    /// The earliest finish time `f∞` of a registered task.
    pub fn finish_of(&self, task: TaskId) -> Option<Time> {
        self.finish.get(task.index()).copied().flatten()
    }

    /// Number of tasks registered so far.
    pub fn len(&self) -> usize {
        self.registered
    }

    /// Returns `true` if no tasks are registered.
    pub fn is_empty(&self) -> bool {
        self.registered == 0
    }

    /// The largest `f∞` seen so far — the critical-path length of the
    /// revealed portion of the instance.
    pub fn revealed_critical_path(&self) -> Time {
        self.finish
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(Time::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::TaskSpec;

    fn released(id: u32, t: Time, preds: Vec<u32>) -> ReleasedTask {
        ReleasedTask {
            id: TaskId(id),
            spec: TaskSpec::new(t, 1),
            preds: preds.into_iter().map(TaskId).collect(),
        }
    }

    #[test]
    fn root_starts_at_zero() {
        let mut tr = CriticalityTracker::new();
        let c = tr.on_release(&released(0, Time::from_int(3), vec![]));
        assert_eq!(c.start, Time::ZERO);
        assert_eq!(c.finish, Time::from_int(3));
    }

    #[test]
    fn successor_takes_max_pred_finish() {
        let mut tr = CriticalityTracker::new();
        tr.on_release(&released(0, Time::from_int(3), vec![]));
        tr.on_release(&released(1, Time::from_int(5), vec![]));
        let c = tr.on_release(&released(2, Time::from_int(1), vec![0, 1]));
        assert_eq!(c.start, Time::from_int(5));
        assert_eq!(c.finish, Time::from_int(6));
        assert_eq!(tr.revealed_critical_path(), Time::from_int(6));
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn unknown_predecessor_panics() {
        let mut tr = CriticalityTracker::new();
        tr.on_release(&released(2, Time::ONE, vec![0]));
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn double_release_panics() {
        let mut tr = CriticalityTracker::new();
        tr.on_release(&released(0, Time::ONE, vec![]));
        tr.on_release(&released(0, Time::ONE, vec![]));
    }

    #[test]
    fn matches_offline_computation() {
        // Online tracking must agree with the offline DP on a diamond.
        use rigid_dag::{analysis, DagBuilder};
        let inst = DagBuilder::new()
            .task("a", Time::from_millis(1, 500), 1)
            .task("b", Time::from_int(2), 1)
            .task("c", Time::from_millis(0, 700), 1)
            .task("d", Time::from_int(1), 1)
            .edge("a", "b")
            .edge("a", "c")
            .edge("b", "d")
            .edge("c", "d")
            .build(2);
        let offline = analysis::criticalities(inst.graph());
        let mut tr = CriticalityTracker::new();
        for id in inst.graph().topological_order().unwrap() {
            let rel = ReleasedTask {
                id,
                spec: inst.graph().spec(id).clone(),
                preds: inst.graph().preds(id).to_vec(),
            };
            let online = tr.on_release(&rel);
            assert_eq!(online, offline[id.index()]);
        }
    }
}
