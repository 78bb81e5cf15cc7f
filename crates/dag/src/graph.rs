//! The task graph and the full scheduling instance.

use crate::task::{TaskId, TaskName, TaskSpec};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// A directed acyclic graph of rigid tasks.
///
/// Edges point from a predecessor to its successor: an edge `(i, j)` means
/// task `j` cannot start until task `i` completes (the paper's Section 3.1).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskGraph {
    specs: Vec<TaskSpec>,
    preds: Vec<Vec<TaskId>>,
    succs: Vec<Vec<TaskId>>,
    edge_count: usize,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Adds a task and returns its id.
    pub fn add_task(&mut self, spec: TaskSpec) -> TaskId {
        let id = TaskId(self.specs.len() as u32);
        self.specs.push(spec);
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        id
    }

    /// Adds a precedence edge `from → to` (task `to` waits for `from`).
    ///
    /// # Panics
    /// Panics on out-of-range ids, self-loops, or duplicate edges.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) {
        assert!(from.index() < self.specs.len(), "edge source out of range");
        assert!(to.index() < self.specs.len(), "edge target out of range");
        assert_ne!(from, to, "self-loop on {from}");
        assert!(!self.has_edge(from, to), "duplicate edge {from} -> {to}");
        self.succs[from.index()].push(to);
        self.preds[to.index()].push(from);
        self.edge_count += 1;
    }

    /// Returns `true` if the edge `from → to` exists.
    ///
    /// Scans the shorter of `succs(from)` and `preds(to)`, so building a
    /// fork or a join of fan-out `w` edge by edge costs O(w), not O(w²).
    pub fn has_edge(&self, from: TaskId, to: TaskId) -> bool {
        let succs = &self.succs[from.index()];
        let preds = &self.preds[to.index()];
        if succs.len() <= preds.len() {
            succs.contains(&to)
        } else {
            preds.contains(&from)
        }
    }

    /// Number of tasks `n`.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Returns `true` if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Number of precedence edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The specification of a task.
    pub fn spec(&self, id: TaskId) -> &TaskSpec {
        &self.specs[id.index()]
    }

    /// The task's display name: its label, or its id (`T3`) when the
    /// label is empty. It formats without allocating and ignores width
    /// and fill flags; to pad it, pad its `to_string()`.
    pub fn display_name(&self, id: TaskId) -> impl fmt::Display + '_ {
        match self.spec(id).label_str() {
            "" => TaskName::Id(id),
            label => TaskName::Label(label),
        }
    }

    /// The predecessors `P(T)` of a task.
    pub fn preds(&self, id: TaskId) -> &[TaskId] {
        &self.preds[id.index()]
    }

    /// The successors of a task.
    pub fn succs(&self, id: TaskId) -> &[TaskId] {
        &self.succs[id.index()]
    }

    /// Iterates over all task ids in index order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.specs.len() as u32).map(TaskId)
    }

    /// Iterates over `(id, spec)` pairs.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &TaskSpec)> + '_ {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, s)| (TaskId(i as u32), s))
    }

    /// Tasks with no predecessors (the roots, ready at time 0).
    pub fn sources(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|id| self.preds(*id).is_empty())
            .collect()
    }

    /// Tasks with no successors (the sinks).
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|id| self.succs(*id).is_empty())
            .collect()
    }

    /// A topological order of the tasks, or `None` if the graph has a cycle
    /// (Kahn's algorithm).
    pub fn topological_order(&self) -> Option<Vec<TaskId>> {
        let n = self.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.preds[i].len()).collect();
        let mut queue: VecDeque<TaskId> = self
            .task_ids()
            .filter(|id| indeg[id.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &s in self.succs(id) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push_back(s);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Returns `true` if the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// Finds a task by its label (linear scan; intended for the small paper
    /// examples and tests).
    pub fn find_by_label(&self, label: &str) -> Option<TaskId> {
        self.tasks()
            .find(|(_, s)| s.label.as_deref() == Some(label))
            .map(|(id, _)| id)
    }

    /// Returns `true` if there is a directed path from `from` to `to`
    /// (BFS; used by tests to cross-check independence claims).
    pub fn has_path(&self, from: TaskId, to: TaskId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.len()];
        let mut queue = VecDeque::from([from]);
        seen[from.index()] = true;
        while let Some(id) = queue.pop_front() {
            for &s in self.succs(id) {
                if s == to {
                    return true;
                }
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    queue.push_back(s);
                }
            }
        }
        false
    }
}

/// A complete scheduling instance: a task graph plus the platform size `P`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Instance {
    graph: TaskGraph,
    procs: u32,
}

/// Why a `(graph, procs)` pair is not a valid instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceError {
    /// `procs == 0`.
    NoProcessors,
    /// The graph contains a dependency cycle.
    Cyclic,
    /// A task demands more processors than the platform has.
    TaskTooWide {
        /// The offending task.
        task: TaskId,
        /// Its demand.
        demand: u32,
        /// The platform size.
        procs: u32,
    },
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::NoProcessors => {
                write!(f, "platform must have at least one processor")
            }
            InstanceError::Cyclic => write!(f, "task graph contains a cycle"),
            InstanceError::TaskTooWide {
                task,
                demand,
                procs,
            } => write!(f, "task {task} requires {demand} > P = {procs} processors"),
        }
    }
}

impl std::error::Error for InstanceError {}

impl Instance {
    /// Creates an instance, validating the paper's model constraints:
    /// the graph must be acyclic and every task must satisfy
    /// `1 ≤ p_i ≤ P` (task times are already positive by `TaskSpec`
    /// construction).
    pub fn try_new(graph: TaskGraph, procs: u32) -> Result<Self, InstanceError> {
        if procs == 0 {
            return Err(InstanceError::NoProcessors);
        }
        if !graph.is_acyclic() {
            return Err(InstanceError::Cyclic);
        }
        for (id, spec) in graph.tasks() {
            if spec.procs > procs {
                return Err(InstanceError::TaskTooWide {
                    task: id,
                    demand: spec.procs,
                    procs,
                });
            }
        }
        Ok(Instance { graph, procs })
    }

    /// Panicking variant of [`try_new`](Self::try_new), for construction
    /// sites where an invalid instance is a programming error.
    ///
    /// # Panics
    /// Panics if any constraint is violated.
    pub fn new(graph: TaskGraph, procs: u32) -> Self {
        match Instance::try_new(graph, procs) {
            Ok(inst) => inst,
            Err(e) => panic!("{e}"),
        }
    }

    /// The task graph.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The platform size `P`.
    pub fn procs(&self) -> u32 {
        self.procs
    }

    /// Number of tasks `n`.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Returns `true` if the instance has no tasks.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_time::Time;

    fn spec(t: i64, p: u32) -> TaskSpec {
        TaskSpec::new(Time::from_int(t), p)
    }

    fn diamond() -> TaskGraph {
        // a -> {b, c} -> d
        let mut g = TaskGraph::new();
        let a = g.add_task(spec(1, 1).with_label("a"));
        let b = g.add_task(spec(2, 1).with_label("b"));
        let c = g.add_task(spec(3, 2).with_label("c"));
        let d = g.add_task(spec(1, 1).with_label("d"));
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        g
    }

    #[test]
    fn build_and_query() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        let a = g.find_by_label("a").unwrap();
        let d = g.find_by_label("d").unwrap();
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![d]);
        assert_eq!(g.preds(d).len(), 2);
        assert_eq!(g.succs(a).len(), 2);
    }

    #[test]
    fn topological_order_valid() {
        let g = diamond();
        let order = g.topological_order().unwrap();
        let pos: Vec<usize> = {
            let mut pos = vec![0; g.len()];
            for (i, id) in order.iter().enumerate() {
                pos[id.index()] = i;
            }
            pos
        };
        for id in g.task_ids() {
            for &s in g.succs(id) {
                assert!(pos[id.index()] < pos[s.index()]);
            }
        }
    }

    #[test]
    fn cycle_detected() {
        let mut g = TaskGraph::new();
        let a = g.add_task(spec(1, 1));
        let b = g.add_task(spec(1, 1));
        g.add_edge(a, b);
        g.add_edge(b, a);
        assert!(!g.is_acyclic());
    }

    #[test]
    fn has_path() {
        let g = diamond();
        let a = g.find_by_label("a").unwrap();
        let b = g.find_by_label("b").unwrap();
        let c = g.find_by_label("c").unwrap();
        let d = g.find_by_label("d").unwrap();
        assert!(g.has_path(a, d));
        assert!(g.has_path(a, a));
        assert!(!g.has_path(b, c));
        assert!(!g.has_path(d, a));
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_rejected() {
        let mut g = TaskGraph::new();
        let a = g.add_task(spec(1, 1));
        let b = g.add_task(spec(1, 1));
        g.add_edge(a, b);
        g.add_edge(a, b);
    }

    /// A fork `hub → leaf_i` (long `succs(hub)`, one-entry preds) and a
    /// join `leaf_i → hub` (one-entry succs, long `preds(hub)`), so
    /// `has_edge` takes each side of its shorter-list choice.
    fn fan(fork: bool) -> (TaskGraph, TaskId, Vec<TaskId>) {
        let mut g = TaskGraph::new();
        let hub = g.add_task(spec(1, 1));
        let leaves: Vec<TaskId> = (0..5).map(|_| g.add_task(spec(1, 1))).collect();
        for &l in &leaves {
            if fork {
                g.add_edge(hub, l);
            } else {
                g.add_edge(l, hub);
            }
        }
        (g, hub, leaves)
    }

    #[test]
    fn has_edge_on_both_scan_sides() {
        let (g, hub, leaves) = fan(true);
        assert!(leaves
            .iter()
            .all(|&l| g.has_edge(hub, l) && !g.has_edge(l, hub)));
        let (g, hub, leaves) = fan(false);
        assert!(leaves
            .iter()
            .all(|&l| g.has_edge(l, hub) && !g.has_edge(hub, l)));
        assert!(!g.has_edge(leaves[0], leaves[1]));
    }

    #[test]
    #[should_panic(expected = "duplicate edge T0 -> T3")]
    fn duplicate_edge_rejected_when_preds_is_shorter() {
        // succs(T0) has 5 entries, preds(T3) one.
        let (mut g, hub, leaves) = fan(true);
        g.add_edge(hub, leaves[2]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge T3 -> T0")]
    fn duplicate_edge_rejected_when_succs_is_shorter() {
        // succs(T3) has one entry, preds(T0) 5.
        let (mut g, hub, leaves) = fan(false);
        g.add_edge(leaves[2], hub);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut g = TaskGraph::new();
        let a = g.add_task(spec(1, 1));
        g.add_edge(a, a);
    }

    #[test]
    #[should_panic(expected = "requires")]
    fn oversized_task_rejected_by_instance() {
        let mut g = TaskGraph::new();
        g.add_task(spec(1, 5));
        let _ = Instance::new(g, 4);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cyclic_instance_rejected() {
        let mut g = TaskGraph::new();
        let a = g.add_task(spec(1, 1));
        let b = g.add_task(spec(1, 1));
        g.add_edge(a, b);
        g.add_edge(b, a);
        let _ = Instance::new(g, 4);
    }

    #[test]
    fn try_new_reports_errors() {
        assert_eq!(
            Instance::try_new(TaskGraph::new(), 0).unwrap_err(),
            InstanceError::NoProcessors
        );
        let mut g = TaskGraph::new();
        let a = g.add_task(spec(1, 1));
        let b = g.add_task(spec(1, 1));
        g.add_edge(a, b);
        g.add_edge(b, a);
        assert_eq!(Instance::try_new(g, 2).unwrap_err(), InstanceError::Cyclic);
        let mut g = TaskGraph::new();
        let wide = g.add_task(spec(1, 9));
        assert_eq!(
            Instance::try_new(g, 4).unwrap_err(),
            InstanceError::TaskTooWide {
                task: wide,
                demand: 9,
                procs: 4
            }
        );
    }

    #[test]
    fn instance_accessors() {
        let inst = Instance::new(diamond(), 4);
        assert_eq!(inst.procs(), 4);
        assert_eq!(inst.len(), 4);
        assert!(!inst.is_empty());
    }
}
