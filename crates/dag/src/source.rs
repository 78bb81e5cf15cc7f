//! The online revelation interface: [`InstanceSource`].
//!
//! In the paper's online model (Section 3.1), the scheduler is unaware of a
//! task until **all of its predecessors have completed**; at that moment the
//! task's execution time, processor requirement, and predecessor set become
//! known. An `InstanceSource` is the engine-facing embodiment of that model:
//! it hands the engine the initially-ready tasks and, after each completion,
//! whichever tasks just became ready.
//!
//! Two implementations matter:
//!
//! * [`StaticSource`] — replays a fixed [`Instance`]; and
//! * the *adaptive adversary* in the `rigid-lowerbounds` crate, which
//!   decides the rest of the graph **while watching the scheduler run**
//!   (the `Z^Alg_P(K)` construction of the paper's Definition 9).
//!
//! Because both implement the same trait, every scheduler in the workspace
//! runs unmodified against either.

use crate::graph::Instance;
use crate::task::{TaskId, TaskSpec};
use rigid_time::Time;
use std::sync::Arc;

/// A task made visible to the scheduler, together with everything the
/// online model allows it to know: the spec `(t, p)` and the (already
/// completed) predecessor set.
#[derive(Clone, Debug)]
pub struct ReleasedTask {
    /// The task's identifier (unique within the run).
    pub id: TaskId,
    /// The task's execution time and processor requirement.
    pub spec: TaskSpec,
    /// The task's predecessors. All of them have completed — that is what
    /// made this task ready. Successors are *not* revealed.
    pub preds: Vec<TaskId>,
}

/// A source of online-revealed tasks, driven by the simulation engine.
///
/// Contract: a task is released exactly once, and only when every one of
/// its predecessors has been reported complete via [`on_complete_into`]
/// (`initial_into` releases the predecessor-free roots). The engine
/// enforces this contract with assertions.
///
/// The `*_into` methods are the required primitives: they **append** to a
/// caller-owned buffer, so a hot simulation loop reuses one `Vec` across
/// the whole run instead of allocating a fresh one per completion. The
/// `Vec`-returning forms ([`initial`], [`on_complete`],
/// [`timed_releases`]) are provided convenience wrappers over them.
///
/// [`on_complete_into`]: InstanceSource::on_complete_into
/// [`initial`]: InstanceSource::initial
/// [`on_complete`]: InstanceSource::on_complete
/// [`timed_releases`]: InstanceSource::timed_releases
pub trait InstanceSource {
    /// Platform size `P`.
    fn procs(&self) -> u32;

    /// Appends the tasks ready at time zero (the DAG roots) to `out`.
    /// Called exactly once, before any completion report.
    fn initial_into(&mut self, out: &mut Vec<ReleasedTask>);

    /// Reports that `task` has completed and appends the tasks that this
    /// completion made ready to `out`. `completion_index` is the 0-based
    /// global rank of this completion event (ties broken by the engine),
    /// which adaptive adversaries use to identify the *last* task
    /// finishing in a layer.
    fn on_complete_into(
        &mut self,
        task: TaskId,
        completion_index: u64,
        out: &mut Vec<ReleasedTask>,
    );

    /// Returns `true` if the source still holds tasks that have not been
    /// released. Used by the engine to detect a stalled run (a source bug
    /// or a scheduler that stopped scheduling).
    fn expects_more(&self) -> bool;

    /// The next *clock-driven* release instant strictly after `now`, if
    /// any. Completion-driven sources (the paper's main model) never
    /// have one; sources with release times (the Section 2.3 regime of
    /// Naroska–Schwiegelshohn \[27\] / Johannes \[23\]) report the arrival
    /// of the next job here so the engine can advance the clock to it.
    fn next_timed_release(&self, now: Time) -> Option<Time> {
        let _ = now;
        None
    }

    /// Appends the tasks released by the clock at exactly `now` (see
    /// [`next_timed_release`](Self::next_timed_release)) to `out`.
    fn timed_releases_into(&mut self, now: Time, out: &mut Vec<ReleasedTask>) {
        let _ = (now, out);
    }

    /// An upper bound on the number of tasks this source will release
    /// over the whole run, when one is known up front. The engine uses
    /// it to pre-size its per-task scratch columns so a large run does
    /// zero mid-run reallocation; `None` (the default, and the only
    /// honest answer for adaptive adversaries) just means the columns
    /// grow on demand. Releasing more tasks than the hint is sound —
    /// the engine counts the overruns in its stats rather than failing.
    fn task_count_hint(&self) -> Option<usize> {
        None
    }

    /// Tasks ready at time zero, as a fresh `Vec` (see
    /// [`initial_into`](Self::initial_into)).
    fn initial(&mut self) -> Vec<ReleasedTask> {
        let mut out = Vec::new();
        self.initial_into(&mut out);
        out
    }

    /// Newly-ready tasks after a completion, as a fresh `Vec` (see
    /// [`on_complete_into`](Self::on_complete_into)).
    fn on_complete(&mut self, task: TaskId, completion_index: u64) -> Vec<ReleasedTask> {
        let mut out = Vec::new();
        self.on_complete_into(task, completion_index, &mut out);
        out
    }

    /// Clock-driven releases at `now`, as a fresh `Vec` (see
    /// [`timed_releases_into`](Self::timed_releases_into)).
    fn timed_releases(&mut self, now: Time) -> Vec<ReleasedTask> {
        let mut out = Vec::new();
        self.timed_releases_into(now, &mut out);
        out
    }
}

/// Independent tasks arriving at fixed release times — the first online
/// setting of the paper's Section 2.3, where greedy list scheduling is
/// 2-competitive (Naroska and Schwiegelshohn \[27\]).
pub struct TimedSource {
    procs: u32,
    /// `(release_time, spec)` sorted ascending; popped from the front.
    pending: std::collections::VecDeque<(Time, TaskSpec)>,
    next_id: u32,
}

impl TimedSource {
    /// Creates a timed source from `(release_time, spec)` pairs on
    /// `procs` processors.
    ///
    /// # Panics
    /// Panics if any release time is negative or any task is wider than
    /// the platform.
    pub fn new(mut arrivals: Vec<(Time, TaskSpec)>, procs: u32) -> Self {
        assert!(procs >= 1);
        for (t, spec) in &arrivals {
            assert!(!t.is_negative(), "negative release time");
            assert!(spec.procs <= procs, "task wider than the platform");
        }
        arrivals.sort_by_key(|a| a.0);
        TimedSource {
            procs,
            pending: arrivals.into(),
            next_id: 0,
        }
    }

    /// Total number of tasks (released or not).
    pub fn total(&self) -> usize {
        self.pending.len() + self.next_id as usize
    }

    fn release_front(&mut self) -> ReleasedTask {
        let (_, spec) = self.pending.pop_front().expect("caller checked");
        let id = TaskId(self.next_id);
        self.next_id += 1;
        ReleasedTask {
            id,
            spec,
            preds: Vec::new(),
        }
    }
}

impl InstanceSource for TimedSource {
    fn procs(&self) -> u32 {
        self.procs
    }

    fn initial_into(&mut self, out: &mut Vec<ReleasedTask>) {
        while self
            .pending
            .front()
            .map(|(t, _)| t.is_zero())
            .unwrap_or(false)
        {
            out.push(self.release_front());
        }
    }

    fn on_complete_into(
        &mut self,
        _task: TaskId,
        _completion_index: u64,
        _out: &mut Vec<ReleasedTask>,
    ) {
    }

    fn expects_more(&self) -> bool {
        !self.pending.is_empty()
    }

    fn next_timed_release(&self, now: Time) -> Option<Time> {
        self.pending.iter().map(|&(t, _)| t).find(|&t| t > now)
    }

    fn task_count_hint(&self) -> Option<usize> {
        Some(self.total())
    }

    fn timed_releases_into(&mut self, now: Time, out: &mut Vec<ReleasedTask>) {
        while self
            .pending
            .front()
            .map(|(t, _)| *t <= now)
            .unwrap_or(false)
        {
            out.push(self.release_front());
        }
    }
}

/// Replays a fixed [`Instance`] online: a task is released as soon as its
/// last predecessor completes.
///
/// Each [`ReleasedTask`] is built from the instance when the task becomes
/// ready (a spec clone and a copy of its predecessor list), and the
/// engine drops it once it has ingested the release, so the source holds
/// only the instance and a few words per task, never a second copy of
/// every spec and predecessor list.
///
/// The instance is shared, not owned: sources built from clones of one
/// `Arc<Instance>` (say, the attempts of one supervised job) read the
/// same graph.
pub struct StaticSource {
    instance: Arc<Instance>,
    /// Per task, the predecessors that have not completed yet, with the
    /// [`RELEASED`] bit set once the task is released.
    missing_preds: Vec<u32>,
    /// Successor adjacency flattened into CSR form: the successors of
    /// task `i` are `succ_targets[succ_offsets[i]..succ_offsets[i+1]]`.
    /// The graph's own `Vec<Vec<_>>` lists cost a pointer chase per
    /// completion; one contiguous pair of arrays is a single predictable
    /// read on the hot path.
    succ_offsets: Vec<u32>,
    succ_targets: Vec<TaskId>,
    released_count: usize,
}

/// High bit of a [`StaticSource`] `missing_preds` entry: the task has
/// been released. Its count is 0 by then, so a further completion of a
/// predecessor still reads as an under-count.
const RELEASED: u32 = 1 << 31;

impl StaticSource {
    /// Wraps an instance for online revelation. Pass an owned
    /// [`Instance`], or an `Arc<Instance>` to share one instance among
    /// several sources without copying it.
    pub fn new(instance: impl Into<Arc<Instance>>) -> Self {
        let instance = instance.into();
        let g = instance.graph();
        let missing_preds = g.task_ids().map(|id| g.preds(id).len() as u32).collect();
        let mut succ_offsets = Vec::with_capacity(g.len() + 1);
        let mut succ_targets = Vec::with_capacity(g.edge_count());
        succ_offsets.push(0);
        for id in g.task_ids() {
            succ_targets.extend_from_slice(g.succs(id));
            succ_offsets.push(succ_targets.len() as u32);
        }
        StaticSource {
            instance,
            missing_preds,
            succ_offsets,
            succ_targets,
            released_count: 0,
        }
    }

    /// The wrapped instance (read-only).
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Releases `id`, whose predecessors have all completed: marks it
    /// released and builds its [`ReleasedTask`] from the instance.
    ///
    /// # Panics
    /// Panics if `id` was already released.
    fn release(&mut self, id: TaskId) -> ReleasedTask {
        let m = &mut self.missing_preds[id.index()];
        assert!(*m == 0, "double release of {id}");
        *m = RELEASED;
        self.released_count += 1;
        let g = self.instance.graph();
        ReleasedTask {
            id,
            spec: g.spec(id).clone(),
            preds: g.preds(id).to_vec(),
        }
    }
}

impl InstanceSource for StaticSource {
    fn procs(&self) -> u32 {
        self.instance.procs()
    }

    fn initial_into(&mut self, out: &mut Vec<ReleasedTask>) {
        for id in self.instance.graph().sources() {
            out.push(self.release(id));
        }
    }

    fn on_complete_into(
        &mut self,
        task: TaskId,
        _completion_index: u64,
        out: &mut Vec<ReleasedTask>,
    ) {
        let i = task.index();
        for k in self.succ_offsets[i] as usize..self.succ_offsets[i + 1] as usize {
            let s = self.succ_targets[k];
            let m = &mut self.missing_preds[s.index()];
            assert!(*m & !RELEASED > 0, "completion under-count for {s}");
            *m -= 1;
            if *m == 0 {
                out.push(self.release(s));
            }
        }
    }

    fn expects_more(&self) -> bool {
        self.released_count < self.instance.len()
    }

    fn task_count_hint(&self) -> Option<usize> {
        Some(self.instance.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraph;
    use rigid_time::Time;

    fn spec(t: i64, p: u32) -> TaskSpec {
        TaskSpec::new(Time::from_int(t), p)
    }

    #[test]
    fn static_source_releases_in_dependency_order() {
        // a -> b -> d, a -> c -> d
        let mut g = TaskGraph::new();
        let a = g.add_task(spec(1, 1));
        let b = g.add_task(spec(1, 1));
        let c = g.add_task(spec(1, 1));
        let d = g.add_task(spec(1, 1));
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        let mut src = StaticSource::new(Instance::new(g, 2));

        let init = src.initial();
        assert_eq!(init.len(), 1);
        assert_eq!(init[0].id, a);
        assert!(init[0].preds.is_empty());
        assert!(src.expects_more());

        let after_a = src.on_complete(a, 0);
        let ids: Vec<TaskId> = after_a.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![b, c]);

        // d needs both b and c.
        assert!(src.on_complete(b, 1).is_empty());
        let after_c = src.on_complete(c, 2);
        assert_eq!(after_c.len(), 1);
        assert_eq!(after_c[0].id, d);
        assert_eq!(after_c[0].preds, vec![b, c]);
        assert!(!src.expects_more());
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn static_source_rejects_a_second_initial_release() {
        let mut g = TaskGraph::new();
        g.add_task(spec(1, 1));
        let mut src = StaticSource::new(Instance::new(g, 1));
        assert_eq!(src.initial().len(), 1);
        let _ = src.initial();
    }

    #[test]
    fn timed_source_orders_arrivals() {
        use rigid_time::Time;
        let mut src = TimedSource::new(
            vec![
                (Time::from_int(2), spec(1, 1)),
                (Time::ZERO, spec(1, 1)),
                (Time::from_int(2), spec(2, 2)),
                (Time::from_int(5), spec(1, 1)),
            ],
            2,
        );
        // Time-0 arrivals come out of initial().
        assert_eq!(src.initial().len(), 1);
        assert!(src.expects_more());
        assert_eq!(src.next_timed_release(Time::ZERO), Some(Time::from_int(2)));
        // Both time-2 arrivals at once.
        let at2 = src.timed_releases(Time::from_int(2));
        assert_eq!(at2.len(), 2);
        assert_eq!(
            src.next_timed_release(Time::from_int(2)),
            Some(Time::from_int(5))
        );
        let at5 = src.timed_releases(Time::from_int(5));
        assert_eq!(at5.len(), 1);
        assert!(!src.expects_more());
        assert_eq!(src.total(), 4);
    }

    #[test]
    #[should_panic(expected = "negative release time")]
    fn timed_source_rejects_negative_times() {
        use rigid_time::Time;
        let _ = TimedSource::new(vec![(-Time::ONE, spec(1, 1))], 2);
    }

    #[test]
    fn independent_tasks_all_initial() {
        let mut g = TaskGraph::new();
        for _ in 0..5 {
            g.add_task(spec(1, 1));
        }
        let mut src = StaticSource::new(Instance::new(g, 4));
        assert_eq!(src.initial().len(), 5);
        assert!(!src.expects_more());
    }
}
