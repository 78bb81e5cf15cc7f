//! The online scheduler interface.
//!
//! The engine drives a scheduler through three callbacks. At every
//! decision instant (time zero, and after each batch of simultaneous
//! completions, failures, releases or capacity changes) it calls
//! [`OnlineScheduler::decide_into`] **once**, and the scheduler appends
//! every task to start *right now*. Appending nothing is a legal and
//! meaningful move: it is the deliberate idling that the paper shows to
//! be necessary (no ASAP heuristic can be better than `Ω(P)`-competitive,
//! Figure 1), and it is how CatBatch holds back tasks of future
//! categories.

use rigid_dag::{ReleasedTask, TaskId};
use rigid_time::Time;

/// An online scheduler for rigid task graphs.
///
/// Information flow honours the paper's online model: the scheduler only
/// ever hears about tasks through [`on_release`](Self::on_release), which
/// fires when the task becomes ready. The engine guarantees:
///
/// * `on_release(task)` precedes any other mention of `task`;
/// * `on_complete(task)` fires exactly once, after the task ran to
///   completion;
/// * `decide_into` is called exactly once per decision instant: at time
///   zero, and at each instant the clock advances to (a completion or
///   failure, a timed release, or a capacity change).
///
/// `decide_into` may only start released, unstarted tasks, each at most
/// once, whose combined demand fits in the currently free processors.
/// The engine reports a breach as a typed
/// [`SchedulerViolation`](crate::SchedulerViolation) inside
/// [`RunError`](crate::RunError).
pub trait OnlineScheduler {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// A task just became ready (all predecessors complete). `now` is the
    /// current simulation time.
    fn on_release(&mut self, task: &ReleasedTask, now: Time);

    /// A task just completed.
    fn on_complete(&mut self, task: TaskId, now: Time);

    /// Asked once per decision instant: which tasks should start now?
    /// `free_procs` processors are currently idle. **Appends** every task
    /// to start at `now` to `out`; their total demand must not exceed
    /// `free_procs`. The engine does not ask again at the same instant,
    /// so a task held back here waits for the next completion, failure,
    /// release or capacity change. Appending nothing idles deliberately.
    ///
    /// The engine reuses one buffer across the whole run, so an
    /// implementation that appends in place allocates nothing per
    /// decision.
    fn decide_into(&mut self, now: Time, free_procs: u32, out: &mut Vec<TaskId>);

    /// [`decide_into`](Self::decide_into) into a fresh `Vec`: a
    /// convenience for callers outside the engine. Implement
    /// `decide_into`, not this.
    fn decide(&mut self, now: Time, free_procs: u32) -> Vec<TaskId> {
        let mut out = Vec::new();
        self.decide_into(now, free_procs, &mut out);
        out
    }

    /// A running attempt of `task` just failed (fail-stop under an active
    /// fault model); all its work is lost and it must be re-executed in
    /// full. Return [`FailureResponse::Retry`] to take the task back as
    /// ready (it may be started again from a later decision), or
    /// [`FailureResponse::Abandon`] to give up, which aborts the run with
    /// [`RunError::TaskAbandoned`](crate::RunError::TaskAbandoned).
    ///
    /// The default declines: schedulers are fault-oblivious unless they
    /// opt in.
    fn on_failure(&mut self, task: TaskId, now: Time) -> FailureResponse {
        let _ = (task, now);
        FailureResponse::Abandon
    }
}

/// A scheduler's answer to a failed task attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureResponse {
    /// Re-queue the task; the scheduler will start it again later.
    Retry,
    /// Give up on the task (aborts the run).
    Abandon,
}

impl<T: OnlineScheduler + ?Sized> OnlineScheduler for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn on_release(&mut self, task: &ReleasedTask, now: Time) {
        (**self).on_release(task, now)
    }
    fn on_complete(&mut self, task: TaskId, now: Time) {
        (**self).on_complete(task, now)
    }
    fn decide_into(&mut self, now: Time, free_procs: u32, out: &mut Vec<TaskId>) {
        (**self).decide_into(now, free_procs, out)
    }
    fn on_failure(&mut self, task: TaskId, now: Time) -> FailureResponse {
        (**self).on_failure(task, now)
    }
}
