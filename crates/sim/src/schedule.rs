//! Schedules: per-task placements, makespan, and validation.
//!
//! A [`Schedule`] is the output artifact of every scheduler in the
//! workspace. Validation checks the two feasibility conditions of the
//! paper's Section 3.1: at most `P` processors in use at every instant,
//! and every task starting only after all of its predecessors finished.

use rigid_dag::{Instance, TaskId};
use rigid_time::Time;
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::BTreeMap;

/// One scheduled task: its start/finish instants and processor demand.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// The task.
    pub task: TaskId,
    /// Start instant `s ≥ 0`.
    pub start: Time,
    /// Finish instant `s + t`.
    pub finish: Time,
    /// Processors used (`p` of the rigid task).
    pub procs: u32,
}

/// A complete schedule on `P` processors.
///
/// Placements are stored densely, indexed by task id (the engine's
/// source contract allocates dense ids), so the engine's `place` on the
/// hot path is an O(1) vector write instead of a B-tree insert.
/// Equality and the serialized wire format (`placements` as an
/// id-keyed object in ascending id order) are value-based and identical
/// to the previous `BTreeMap` representation.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    procs: u32,
    /// Slot `i` holds the placement of `TaskId(i)`, if placed.
    slots: Vec<Option<Placement>>,
    /// Number of occupied slots.
    placed: usize,
}

impl PartialEq for Schedule {
    fn eq(&self, other: &Self) -> bool {
        self.procs == other.procs
            && self.placed == other.placed
            && self.placements().eq(other.placements())
    }
}

impl Eq for Schedule {}

impl Serialize for Schedule {
    fn serialize(&self) -> Value {
        // Mirror the legacy derived format exactly: `placements` is an
        // id-keyed object in ascending task-id order.
        let map: BTreeMap<TaskId, &Placement> = self.placements().map(|p| (p.task, p)).collect();
        Value::Object(vec![
            ("procs".to_string(), self.procs.serialize()),
            ("placements".to_string(), map.serialize()),
        ])
    }
}

impl Deserialize for Schedule {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let Value::Object(fields) = value else {
            return Err(Error::new(format!(
                "expected object, found {}",
                value.kind()
            )));
        };
        let field = |name: &str| {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::new(format!("Schedule is missing field {name:?}")))
        };
        let procs = u32::deserialize(field("procs")?)?;
        let map = BTreeMap::<TaskId, Placement>::deserialize(field("placements")?)?;
        let mut schedule = Schedule {
            procs,
            slots: Vec::new(),
            placed: 0,
        };
        for (id, p) in map {
            schedule.place(id, p.start, p.finish, p.procs);
        }
        Ok(schedule)
    }
}

/// A violation found by [`Schedule::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A task starts before one of its predecessors finishes.
    PrecedenceViolated {
        /// The offending task.
        task: TaskId,
        /// The predecessor that had not finished.
        pred: TaskId,
    },
    /// More than `P` processors in use during some interval.
    CapacityExceeded {
        /// Start of the overloaded interval.
        at: Time,
        /// Processors demanded there.
        used: u64,
    },
    /// A task present in the instance is missing from the schedule.
    MissingTask(TaskId),
    /// A placement's duration does not equal the task's execution time,
    /// or its processor count does not match the spec.
    SpecMismatch(TaskId),
    /// A task starts before time zero.
    NegativeStart(TaskId),
}

impl Schedule {
    /// Creates an empty schedule for a platform of `procs` processors.
    pub fn new(procs: u32) -> Self {
        assert!(procs >= 1);
        Schedule {
            procs,
            slots: Vec::new(),
            placed: 0,
        }
    }

    /// Creates an empty schedule whose slots for task ids below `tasks`
    /// are reserved up front, so placing those tasks never regrows them.
    pub fn with_capacity(procs: u32, tasks: usize) -> Self {
        let mut schedule = Schedule::new(procs);
        schedule.slots.reserve_exact(tasks);
        schedule
    }

    /// Platform size `P`.
    pub fn procs(&self) -> u32 {
        self.procs
    }

    /// Records a placement.
    ///
    /// # Panics
    /// Panics if the task was already placed or the interval is empty.
    pub fn place(&mut self, task: TaskId, start: Time, finish: Time, procs: u32) {
        assert!(finish > start, "empty placement interval for {task}");
        let idx = task.index();
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        let slot = &mut self.slots[idx];
        assert!(slot.is_none(), "task {task} placed twice");
        *slot = Some(Placement {
            task,
            start,
            finish,
            procs,
        });
        self.placed += 1;
    }

    /// The placement of a task, if scheduled.
    pub fn placement(&self, task: TaskId) -> Option<&Placement> {
        self.slots.get(task.index()).and_then(|s| s.as_ref())
    }

    /// Iterates over all placements in task-id order.
    pub fn placements(&self) -> impl Iterator<Item = &Placement> + '_ {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Number of placed tasks.
    pub fn len(&self) -> usize {
        self.placed
    }

    /// Returns `true` if nothing is placed.
    pub fn is_empty(&self) -> bool {
        self.placed == 0
    }

    /// The makespan `max (s_i + t_i)` (zero for an empty schedule).
    pub fn makespan(&self) -> Time {
        self.placements()
            .map(|p| p.finish)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// The processor-usage step function: instants where usage changes and
    /// the usage on the interval starting there, as `(instant, used)` pairs
    /// sorted by time. The final pair has usage 0.
    pub fn usage_profile(&self) -> Vec<(Time, u64)> {
        let mut out = Vec::new();
        self.sweep_usage(|t, used| out.push((t, used)));
        out
    }

    /// Calls `emit(instant, used)` for every instant at which a placement
    /// starts or finishes, in time order, with the usage on the interval
    /// starting there. All deltas at one instant are summed before it is
    /// emitted, so it yields one point even when they cancel out. Holds
    /// two sorted vectors of references, not a map of every instant.
    fn sweep_usage(&self, mut emit: impl FnMut(Time, u64)) {
        let mut starts = Vec::with_capacity(self.placed);
        starts.extend(self.placements());
        let mut finishes = starts.clone();
        starts.sort_unstable_by_key(|p| p.start);
        finishes.sort_unstable_by_key(|p| p.finish);
        let (mut i, mut j) = (0, 0);
        let mut cur: i64 = 0;
        // Every placement finishes after it starts, so the last instant
        // is a finish and every start is consumed before it.
        while let Some(f) = finishes.get(j) {
            let t = match starts.get(i) {
                Some(s) if s.start < f.finish => s.start,
                _ => f.finish,
            };
            while let Some(s) = starts.get(i).filter(|s| s.start == t) {
                cur += i64::from(s.procs);
                i += 1;
            }
            while let Some(f) = finishes.get(j).filter(|f| f.finish == t) {
                cur -= i64::from(f.procs);
                j += 1;
            }
            debug_assert!(cur >= 0);
            emit(t, cur as u64);
        }
    }

    /// Validates the schedule against an instance. Returns all violations
    /// (empty means feasible and complete).
    pub fn validate(&self, instance: &Instance) -> Vec<Violation> {
        let mut violations = Vec::new();
        let g = instance.graph();

        for id in g.task_ids() {
            match self.placement(id) {
                None => violations.push(Violation::MissingTask(id)),
                Some(p) => {
                    let spec = g.spec(id);
                    if p.finish - p.start != spec.time || p.procs != spec.procs {
                        violations.push(Violation::SpecMismatch(id));
                    }
                    if p.start.is_negative() {
                        violations.push(Violation::NegativeStart(id));
                    }
                    for &pred in g.preds(id) {
                        if let Some(pp) = self.placement(pred) {
                            if pp.finish > p.start {
                                violations.push(Violation::PrecedenceViolated { task: id, pred });
                            }
                        }
                        // A missing predecessor is reported as MissingTask.
                    }
                }
            }
        }

        self.sweep_usage(|at, used| {
            if used > u64::from(self.procs) {
                violations.push(Violation::CapacityExceeded { at, used });
            }
        });

        violations
    }

    /// Panicking variant of [`validate`](Schedule::validate), for tests.
    pub fn assert_valid(&self, instance: &Instance) {
        let v = self.validate(instance);
        assert!(v.is_empty(), "schedule violations: {v:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::{DagBuilder, TaskSpec};

    fn chain_instance() -> Instance {
        DagBuilder::new()
            .task("a", Time::from_int(2), 2)
            .task("b", Time::from_int(1), 3)
            .edge("a", "b")
            .build(4)
    }

    #[test]
    fn valid_schedule_passes() {
        let inst = chain_instance();
        let g = inst.graph();
        let a = g.find_by_label("a").unwrap();
        let b = g.find_by_label("b").unwrap();
        let mut s = Schedule::new(4);
        s.place(a, Time::ZERO, Time::from_int(2), 2);
        s.place(b, Time::from_int(2), Time::from_int(3), 3);
        assert!(s.validate(&inst).is_empty());
        assert_eq!(s.makespan(), Time::from_int(3));
    }

    #[test]
    fn precedence_violation_detected() {
        let inst = chain_instance();
        let g = inst.graph();
        let a = g.find_by_label("a").unwrap();
        let b = g.find_by_label("b").unwrap();
        let mut s = Schedule::new(4);
        s.place(a, Time::ZERO, Time::from_int(2), 2);
        s.place(b, Time::from_int(1), Time::from_int(2), 3);
        let v = s.validate(&inst);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::PrecedenceViolated { task, pred } if *task == b && *pred == a)));
    }

    #[test]
    fn capacity_violation_detected() {
        let mut g = rigid_dag::TaskGraph::new();
        let a = g.add_task(TaskSpec::new(Time::from_int(2), 3));
        let b = g.add_task(TaskSpec::new(Time::from_int(2), 3));
        let inst = Instance::new(g, 4);
        let mut s = Schedule::new(4);
        s.place(a, Time::ZERO, Time::from_int(2), 3);
        s.place(b, Time::from_int(1), Time::from_int(3), 3);
        let v = s.validate(&inst);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::CapacityExceeded { used: 6, .. })));
    }

    #[test]
    fn touching_intervals_do_not_overlap() {
        // Usage at the exact boundary instant: a finishes at 2, b starts at
        // 2 — both demand 3 of 4 procs; this must be feasible (open
        // intervals).
        let mut g = rigid_dag::TaskGraph::new();
        let a = g.add_task(TaskSpec::new(Time::from_int(2), 3));
        let b = g.add_task(TaskSpec::new(Time::from_int(1), 3));
        let inst = Instance::new(g, 4);
        let mut s = Schedule::new(4);
        s.place(a, Time::ZERO, Time::from_int(2), 3);
        s.place(b, Time::from_int(2), Time::from_int(3), 3);
        assert!(s.validate(&inst).is_empty());
    }

    #[test]
    fn missing_and_mismatched_tasks_detected() {
        let inst = chain_instance();
        let g = inst.graph();
        let a = g.find_by_label("a").unwrap();
        let mut s = Schedule::new(4);
        s.place(a, Time::ZERO, Time::from_int(5), 2); // wrong duration
        let v = s.validate(&inst);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::SpecMismatch(t) if *t == a)));
        assert!(v.iter().any(|x| matches!(x, Violation::MissingTask(_))));
    }

    #[test]
    fn usage_profile_steps() {
        let mut s = Schedule::new(4);
        s.place(TaskId(0), Time::ZERO, Time::from_int(2), 1);
        s.place(TaskId(1), Time::from_int(1), Time::from_int(3), 2);
        let profile = s.usage_profile();
        assert_eq!(
            profile,
            vec![
                (Time::ZERO, 1),
                (Time::from_int(1), 3),
                (Time::from_int(2), 2),
                (Time::from_int(3), 0),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn double_place_panics() {
        let mut s = Schedule::new(2);
        s.place(TaskId(0), Time::ZERO, Time::ONE, 1);
        s.place(TaskId(0), Time::ONE, Time::from_int(2), 1);
    }

    #[test]
    fn equality_ignores_slot_capacity() {
        // Schedules with the same placements are equal even when their
        // dense slot vectors grew differently (e.g. out-of-order ids
        // left different trailing holes).
        let mut a = Schedule::new(4);
        a.place(TaskId(5), Time::ZERO, Time::ONE, 1);
        a.place(TaskId(1), Time::ZERO, Time::ONE, 1);
        let mut b = Schedule::new(4);
        b.place(TaskId(1), Time::ZERO, Time::ONE, 1);
        b.place(TaskId(5), Time::ZERO, Time::ONE, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        // Placement order out of the iterator is ascending id.
        let ids: Vec<TaskId> = a.placements().map(|p| p.task).collect();
        assert_eq!(ids, vec![TaskId(1), TaskId(5)]);
    }

    #[test]
    fn serde_wire_format_is_id_keyed_object() {
        let mut s = Schedule::new(3);
        s.place(TaskId(2), Time::ZERO, Time::from_int(2), 1);
        s.place(TaskId(0), Time::ONE, Time::from_int(3), 2);
        let json = serde_json::to_string(&s).unwrap();
        // The wire format is the legacy BTreeMap shape: an object keyed
        // by task id, ascending, under "placements".
        assert!(json.contains("\"procs\":3"), "{json}");
        let p0 = json.find("\"0\"").expect("id key 0");
        let p2 = json.find("\"2\"").expect("id key 2");
        assert!(p0 < p2, "keys must ascend: {json}");
        let back: Schedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.makespan(), s.makespan());
    }
}
