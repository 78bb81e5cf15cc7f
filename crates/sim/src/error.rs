//! Typed run errors: every way an engine run can fail, as data.
//!
//! The engine distinguishes *whose* contract was broken. A
//! [`SourceViolation`] means the [`InstanceSource`] fed the engine an
//! illegal release stream (the online model's revelation rules,
//! Section 3.1 of the paper); a [`SchedulerViolation`] means the
//! [`OnlineScheduler`] made an illegal move. Both are recoverable
//! through [`EngineConfig::try_run`](crate::EngineConfig::try_run); the
//! panicking [`EngineConfig::run`](crate::EngineConfig::run) remains for
//! tests and callers that treat violations as bugs.
//!
//! [`InstanceSource`]: rigid_dag::InstanceSource
//! [`OnlineScheduler`]: crate::OnlineScheduler

use rigid_dag::TaskId;
use rigid_time::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An illegal release stream from the instance source.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SourceViolation {
    /// The same task id was released twice.
    DuplicateRelease {
        /// The task released again.
        task: TaskId,
    },
    /// A task was released while one of its predecessors had not yet
    /// completed — the revelation model requires *all* predecessors to
    /// finish first.
    PrematureRelease {
        /// The task released too early.
        task: TaskId,
        /// The predecessor that was still pending.
        pred: TaskId,
    },
    /// A released task names a predecessor the engine has never seen.
    UnknownPredecessor {
        /// The task carrying the dangling reference.
        task: TaskId,
        /// The unknown predecessor id.
        pred: TaskId,
    },
    /// A released task lists the same predecessor more than once.
    DuplicatePredecessor {
        /// The task carrying the repeated reference.
        task: TaskId,
        /// The predecessor listed twice.
        pred: TaskId,
    },
    /// A released task demands more processors than the platform has —
    /// it could never be started by any scheduler.
    Oversubscription {
        /// The impossible task.
        task: TaskId,
        /// Its processor demand.
        needed: u32,
        /// The platform size `P`.
        platform: u32,
    },
    /// The run quiesced (no completions or arrivals pending) but the
    /// source claims it still holds unreleased tasks.
    WithheldTasks,
}

impl fmt::Display for SourceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceViolation::DuplicateRelease { task } => {
                write!(f, "source contract violated: task {task} released twice")
            }
            SourceViolation::PrematureRelease { task, pred } => write!(
                f,
                "source contract violated: task {task} released before its \
                 predecessor {pred} completed"
            ),
            SourceViolation::UnknownPredecessor { task, pred } => write!(
                f,
                "source contract violated: released task {task} references \
                 unknown predecessor {pred}"
            ),
            SourceViolation::DuplicatePredecessor { task, pred } => write!(
                f,
                "source contract violated: released task {task} lists \
                 predecessor {pred} more than once"
            ),
            SourceViolation::Oversubscription {
                task,
                needed,
                platform,
            } => write!(
                f,
                "source contract violated: released task {task} needs {needed} \
                 procs but the platform has only {platform}"
            ),
            SourceViolation::WithheldTasks => write!(
                f,
                "source still holds unreleased tasks after all completions"
            ),
        }
    }
}

/// An illegal move by the online scheduler.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerViolation {
    /// `decide_into` listed the same task twice in one decision.
    DuplicateDecision {
        /// The repeated task.
        task: TaskId,
    },
    /// `decide_into` started a task that was never released.
    UnknownTask {
        /// The unknown task id.
        task: TaskId,
    },
    /// `decide_into` started a task that is already running or finished.
    DoubleStart {
        /// The task started again.
        task: TaskId,
    },
    /// `decide_into` started tasks whose combined demand exceeds the free
    /// processors.
    Oversubscribed {
        /// The task that did not fit.
        task: TaskId,
        /// Its processor demand.
        needed: u32,
        /// Processors actually free at that instant.
        free: u32,
    },
    /// The machine went idle with no pending arrivals while released
    /// tasks remain unstarted: the scheduler will never be consulted
    /// again, so those tasks are stuck.
    Deadlock {
        /// The tasks left unstarted, in id order.
        unstarted: Vec<TaskId>,
        /// Platform capacity at the moment of the deadlock (can be
        /// below `P` under an active fault model).
        capacity: u32,
    },
}

impl fmt::Display for SchedulerViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerViolation::DuplicateDecision { task } => {
                write!(f, "decide returned {task} twice")
            }
            SchedulerViolation::UnknownTask { task } => {
                write!(f, "scheduler started unknown task {task}")
            }
            SchedulerViolation::DoubleStart { task } => {
                write!(f, "scheduler started {task} twice")
            }
            SchedulerViolation::Oversubscribed { task, needed, free } => write!(
                f,
                "scheduler oversubscribed: task {task} needs {needed} procs, {free} free"
            ),
            SchedulerViolation::Deadlock {
                unstarted,
                capacity,
            } => write!(
                f,
                "scheduler deadlock: machine idle (capacity {capacity}) but \
                 tasks {unstarted:?} unstarted"
            ),
        }
    }
}

/// Which limit of a [`RunBudget`](crate::engine::RunBudget) was
/// exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BudgetKind {
    /// The event-count ceiling (`max_events`). Deterministic: the same
    /// run under the same budget always trips at the same point.
    Events {
        /// The configured ceiling.
        limit: u64,
    },
    /// The wall-clock deadline (`wall_deadline`). Inherently
    /// nondeterministic — use it as a safety net, not a reproducible
    /// experiment knob.
    WallClock {
        /// The configured limit, in milliseconds.
        limit_ms: u64,
    },
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::Events { limit } => write!(f, "event budget of {limit}"),
            BudgetKind::WallClock { limit_ms } => {
                write!(f, "wall-clock budget of {limit_ms} ms")
            }
        }
    }
}

/// Why an engine run could not produce a schedule.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunError {
    /// The instance source broke the revelation contract.
    SourceViolation(SourceViolation),
    /// The scheduler made an illegal move.
    SchedulerViolation(SchedulerViolation),
    /// A task kept failing and the scheduler declined to retry it
    /// (its retry budget ran out, or it does not support retries).
    TaskAbandoned {
        /// The abandoned task.
        task: TaskId,
        /// Attempts made (all of which failed).
        attempts: u32,
        /// Simulation time of the abandonment.
        at: Time,
    },
    /// The run was cut off by its [`RunBudget`](crate::engine::RunBudget)
    /// before reaching quiescence.
    BudgetExceeded {
        /// Which limit tripped.
        exceeded: BudgetKind,
        /// Events processed when the run was cut off.
        events: u64,
        /// Simulation instant at the cutoff.
        at: Time,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::SourceViolation(v) => v.fmt(f),
            RunError::SchedulerViolation(v) => v.fmt(f),
            RunError::TaskAbandoned { task, attempts, at } => write!(
                f,
                "task {task} abandoned after {attempts} failed attempt(s) at t={at}"
            ),
            RunError::BudgetExceeded {
                exceeded,
                events,
                at,
            } => write!(
                f,
                "run exceeded its {exceeded} after {events} event(s) at t={at}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SourceViolation> for RunError {
    fn from(v: SourceViolation) -> Self {
        RunError::SourceViolation(v)
    }
}

impl From<SchedulerViolation> for RunError {
    fn from(v: SchedulerViolation) -> Self {
        RunError::SchedulerViolation(v)
    }
}
