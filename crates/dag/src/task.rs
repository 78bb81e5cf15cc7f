//! Task identifiers and rigid task specifications.

use rigid_time::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a task within an instance (a dense index).
///
/// Task ids are allocated by the instance (or, in the online setting, by the
/// [`InstanceSource`](crate::source::InstanceSource)) and are stable for the
/// lifetime of a run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The dense index of this task.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A task's display name, from [`TaskGraph::display_name`]: its
/// non-empty label, or its id.
///
/// [`TaskGraph::display_name`]: crate::TaskGraph::display_name
pub(crate) enum TaskName<'a> {
    Label(&'a str),
    Id(TaskId),
}

impl fmt::Display for TaskName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskName::Label(label) => f.write_str(label),
            TaskName::Id(id) => write!(f, "{id}"),
        }
    }
}

impl From<u32> for TaskId {
    fn from(v: u32) -> Self {
        TaskId(v)
    }
}

/// A rigid task: a fixed execution time and a fixed processor requirement.
///
/// Rigid tasks are the task model of the paper's Section 3: the scheduler
/// may choose *when* a task starts but never how many processors it uses.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Execution time `t > 0`.
    pub time: Time,
    /// Processor requirement `p ∈ [1, P]`.
    pub procs: u32,
    /// Optional human-readable label (used by the paper examples: "A"…"K").
    pub label: Option<String>,
}

impl TaskSpec {
    /// Creates a task spec with the given execution time and processor
    /// requirement.
    ///
    /// # Panics
    /// Panics if `time ≤ 0` or `procs == 0`. (A zero-length task would have
    /// an empty criticality interval and no category; the paper's model
    /// requires positive lengths.)
    pub fn new(time: Time, procs: u32) -> Self {
        assert!(time.is_positive(), "task execution time must be > 0");
        assert!(procs >= 1, "task processor requirement must be >= 1");
        TaskSpec {
            time,
            procs,
            label: None,
        }
    }

    /// Attaches a label, consuming and returning the spec (builder style).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The area `t·p` of this task (Section 3.2 of the paper).
    pub fn area(&self) -> Time {
        self.time.mul_int(self.procs as i64)
    }

    /// The display label: the explicit label if set, otherwise empty.
    pub fn label_str(&self) -> &str {
        self.label.as_deref().unwrap_or("")
    }
}

impl fmt::Debug for TaskSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(l) = &self.label {
            write!(f, "{l}(t={}, p={})", self.time, self.procs)
        } else {
            write!(f, "(t={}, p={})", self.time, self.procs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_is_time_times_procs() {
        let s = TaskSpec::new(Time::from_millis(2, 500), 3);
        assert_eq!(s.area(), Time::from_millis(7, 500));
    }

    #[test]
    #[should_panic(expected = "must be > 0")]
    fn zero_time_rejected() {
        let _ = TaskSpec::new(Time::ZERO, 1);
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn zero_procs_rejected() {
        let _ = TaskSpec::new(Time::ONE, 0);
    }

    #[test]
    fn labels() {
        let s = TaskSpec::new(Time::ONE, 1).with_label("A");
        assert_eq!(s.label_str(), "A");
        assert_eq!(format!("{s:?}"), "A(t=1, p=1)");
    }

    #[test]
    fn task_id_display() {
        assert_eq!(format!("{}", TaskId(7)), "T7");
        assert_eq!(TaskId(7).index(), 7);
    }
}
