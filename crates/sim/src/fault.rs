//! Fault-model hooks for the engine: fail-stop tasks, stragglers, and
//! degraded platform capacity.
//!
//! The paper's model fixes every task's execution time `t_i` and the
//! platform size `P` for the whole run. A [`FaultModel`] lets a run
//! depart from those assumptions in three controlled ways, decided
//! deterministically at each task start:
//!
//! * **fail-stop** — the attempt dies after a fraction of `t_i`; all
//!   work is wasted and the task must be re-executed from scratch;
//! * **straggler** — the attempt takes longer than its nominal `t_i`;
//! * **capacity dips** — intervals during which fewer than `P`
//!   processors accept *new* starts (running tasks keep their
//!   processors; the model is "no new allocations", not preemption).
//!
//! The engine records everything the fault model did in a [`FaultLog`]
//! so that downstream analysis (the `catbatch` guarantee monitor, the
//! `rigid-faults` campaign runner) can report exactly which theoretical
//! assumptions were violated and by how much.
//!
//! Termination contract: a `FaultModel` must schedule finitely many
//! capacity events via [`next_capacity_event`](FaultModel::next_capacity_event),
//! and must not fail the same task unboundedly if the scheduler retries
//! forever — the engine trusts the model to let runs terminate.

use rigid_dag::TaskId;
use rigid_time::Time;

/// The outcome the fault model assigns to one task attempt, decided at
/// the instant the attempt starts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Attempt {
    /// The attempt runs for its nominal `t` and completes.
    Complete,
    /// Straggler: the attempt completes, but only after `actual ≥ t`.
    Inflated {
        /// The actual (inflated) duration.
        actual: Time,
    },
    /// Fail-stop: the attempt dies after `after` (`0 < after ≤ t`);
    /// the task must be re-executed in full.
    Fail {
        /// Time into the attempt at which it fails.
        after: Time,
    },
}

/// Decides the fate of task attempts and the platform's capacity over
/// time. Implementations must be deterministic for reproducible runs.
pub trait FaultModel {
    /// Called when `task` begins its `attempt`-th execution attempt
    /// (0-based) at time `now`, with nominal duration `nominal` on
    /// `procs` processors. Returns what happens to this attempt.
    fn on_start(
        &mut self,
        task: TaskId,
        attempt: u32,
        now: Time,
        nominal: Time,
        procs: u32,
    ) -> Attempt;

    /// Platform capacity at `now` (clamped to `platform` by the
    /// engine). Running tasks are unaffected; only new starts are
    /// limited to `capacity − used`.
    fn capacity(&mut self, now: Time, platform: u32) -> u32 {
        let _ = now;
        platform
    }

    /// The next instant strictly after `now` at which
    /// [`capacity`](Self::capacity) changes, if any. The engine wakes up there even
    /// if nothing completes, so schedulers see recoveries. Must return
    /// `None` eventually (finitely many events).
    fn next_capacity_event(&self, now: Time) -> Option<Time> {
        let _ = now;
        None
    }
}

/// The default fault model: nothing ever fails.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl FaultModel for NoFaults {
    fn on_start(
        &mut self,
        _task: TaskId,
        _attempt: u32,
        _now: Time,
        _nominal: Time,
        _procs: u32,
    ) -> Attempt {
        Attempt::Complete
    }
}

/// How one recorded attempt ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Ran for its nominal time and completed.
    Completed,
    /// Completed late: ran `actual` instead of `nominal`.
    Inflated {
        /// Nominal duration `t`.
        nominal: Time,
        /// Actual duration (≥ nominal).
        actual: Time,
    },
    /// Failed after running `ran` of its `nominal` duration.
    Failed {
        /// Nominal duration `t`.
        nominal: Time,
        /// Time the attempt ran before dying (all wasted).
        ran: Time,
    },
}

/// One noteworthy task attempt (every failure, every straggler, and
/// every retry — clean first attempts are not recorded).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttemptRecord {
    /// The task.
    pub task: TaskId,
    /// 0-based attempt number.
    pub attempt: u32,
    /// When the attempt started.
    pub start: Time,
    /// When it completed or failed.
    pub end: Time,
    /// Processors it held throughout.
    pub procs: u32,
    /// How it ended.
    pub outcome: AttemptOutcome,
}

/// Everything the fault model did during a run, aggregated for
/// bound analysis.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Noteworthy attempts in start order (see [`AttemptRecord`]).
    pub attempts: Vec<AttemptRecord>,
    /// Number of failed attempts across all tasks.
    pub failures: u64,
    /// Area `Σ p·ran` consumed by failed attempts — work the platform
    /// did that contributes nothing to the schedule.
    pub wasted_area: Time,
    /// Extra area `Σ p·(actual − nominal)` consumed by stragglers
    /// beyond their nominal specs.
    pub inflated_area: Time,
    /// Minimum platform capacity observed at any decision point
    /// (equals `P` for a run without capacity dips).
    pub min_capacity: u32,
}

impl FaultLog {
    /// A fresh log for a platform of `procs` processors.
    pub fn new(procs: u32) -> Self {
        FaultLog {
            attempts: Vec::new(),
            failures: 0,
            wasted_area: Time::ZERO,
            inflated_area: Time::ZERO,
            min_capacity: procs,
        }
    }

    /// `true` if every assumption of the paper's model held: no
    /// failures, no stragglers, full capacity throughout.
    pub fn is_clean(&self, platform: u32) -> bool {
        self.failures == 0 && self.inflated_area.is_zero() && self.min_capacity >= platform
    }

    /// Total extra area the platform absorbed relative to a fault-free
    /// run (`wasted + inflated`).
    pub fn extra_area(&self) -> Time {
        self.wasted_area + self.inflated_area
    }
}
