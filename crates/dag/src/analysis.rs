//! Offline instance analysis: criticalities, critical path, area, and the
//! Graham makespan lower bound `Lb(I) = max(A(I)/P, C(I))`.
//!
//! These quantities are *analysis* tools: the online scheduler never sees
//! them for the whole instance (it only learns criticalities of revealed
//! tasks incrementally). They are used to normalize makespans when
//! measuring competitive ratios, exactly as the paper's Section 3.2 does.

use crate::graph::{Instance, TaskGraph};
use crate::task::TaskId;
use rigid_time::Time;
use serde::{Deserialize, Serialize};

/// The criticality `(s∞, f∞)` of a task (the paper's Definition 1): its
/// start and finish instants in an ASAP schedule with unbounded processors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Criticality {
    /// Earliest start time `s∞` — the longest path length from any root to
    /// this task (excluding the task itself).
    pub start: Time,
    /// Earliest finish time `f∞ = s∞ + t`.
    pub finish: Time,
}

impl Criticality {
    /// The interval length `f∞ − s∞ = t`.
    pub fn span(&self) -> Time {
        self.finish - self.start
    }

    /// Returns `true` if two criticality intervals overlap (open-interval
    /// overlap). Overlapping criticalities imply the tasks are independent
    /// (no DAG path between them) — the key observation behind categories.
    pub fn overlaps(&self, other: &Criticality) -> bool {
        self.start < other.finish && other.start < self.finish
    }
}

/// Computes the criticality of every task by dynamic programming over a
/// topological order (Lemma 1: `s∞ = max f∞ over predecessors`, 0 at roots).
///
/// # Panics
/// Panics if the graph is cyclic.
pub fn criticalities(graph: &TaskGraph) -> Vec<Criticality> {
    let order = graph
        .topological_order()
        .expect("criticalities require an acyclic graph");
    let mut crit = vec![
        Criticality {
            start: Time::ZERO,
            finish: Time::ZERO
        };
        graph.len()
    ];
    for id in order {
        let s_inf = graph
            .preds(id)
            .iter()
            .map(|&p| crit[p.index()].finish)
            .max()
            .unwrap_or(Time::ZERO);
        crit[id.index()] = Criticality {
            start: s_inf,
            finish: s_inf + graph.spec(id).time,
        };
    }
    crit
}

/// Summary statistics of an instance used throughout the analysis.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceStats {
    /// Number of tasks `n`.
    pub n: usize,
    /// Platform size `P`.
    pub procs: u32,
    /// Total area `A(I) = Σ t_i · p_i`.
    pub area: Time,
    /// Critical-path length `C(I) = max f∞`.
    pub critical_path: Time,
    /// Graham lower bound `Lb(I) = max(A/P, C)`.
    pub lower_bound: Time,
    /// Length of the shortest task `m`.
    pub min_len: Time,
    /// Length of the longest task `M`.
    pub max_len: Time,
}

impl InstanceStats {
    /// The length ratio `M/m` as an `f64` (reporting only).
    ///
    /// Returns `None` when the ratio is undefined — an empty instance
    /// (`n == 0`) or a degenerate shortest task (`m == 0`) — instead of
    /// dividing by zero and leaking `inf`/`NaN` into reports.
    pub fn length_ratio(&self) -> Option<f64> {
        if self.n == 0 || !self.min_len.is_positive() {
            return None;
        }
        Some(self.max_len.to_f64() / self.min_len.to_f64())
    }
}

/// Computes all instance statistics in one pass.
///
/// # Panics
/// Panics if the instance is empty (the statistics `m`, `M`, `C` would be
/// undefined).
pub fn stats(instance: &Instance) -> InstanceStats {
    let graph = instance.graph();
    assert!(
        !graph.is_empty(),
        "stats of an empty instance are undefined"
    );
    let crit = criticalities(graph);
    let critical_path = crit
        .iter()
        .map(|c| c.finish)
        .max()
        .expect("non-empty instance");
    let area: Time = graph.tasks().map(|(_, s)| s.area()).sum();
    let min_len = graph
        .tasks()
        .map(|(_, s)| s.time)
        .min()
        .expect("non-empty instance");
    let max_len = graph
        .tasks()
        .map(|(_, s)| s.time)
        .max()
        .expect("non-empty instance");
    let per_proc = area.div_int(instance.procs() as i64);
    InstanceStats {
        n: graph.len(),
        procs: instance.procs(),
        area,
        critical_path,
        lower_bound: per_proc.max(critical_path),
        min_len,
        max_len,
    }
}

/// Critical-path length `C(I)` alone (max `f∞` over all tasks).
pub fn critical_path(graph: &TaskGraph) -> Time {
    criticalities(graph)
        .iter()
        .map(|c| c.finish)
        .max()
        .unwrap_or(Time::ZERO)
}

/// Total area `A(I) = Σ t_i p_i`.
pub fn area(graph: &TaskGraph) -> Time {
    graph.tasks().map(|(_, s)| s.area()).sum()
}

/// Graham lower bound `Lb(I) = max(A(I)/P, C(I))` (Equation (1)).
pub fn lower_bound(instance: &Instance) -> Time {
    let a = area(instance.graph()).div_int(instance.procs() as i64);
    a.max(critical_path(instance.graph()))
}

/// The *width profile* of an instance: the processor demand of the ASAP
/// unbounded-processor schedule as a step function over time, returned
/// as `(instant, demand)` change points (final demand 0).
///
/// This is the ideal parallelism curve — the demand the platform would
/// see with infinitely many processors. Where the profile exceeds `P`
/// the area bound `A/P` binds; where it stays below, the critical path
/// binds.
pub fn width_profile(graph: &TaskGraph) -> Vec<(Time, u64)> {
    use std::collections::BTreeMap;
    let crit = criticalities(graph);
    let mut deltas: BTreeMap<Time, i64> = BTreeMap::new();
    for (id, spec) in graph.tasks() {
        let c = &crit[id.index()];
        *deltas.entry(c.start).or_insert(0) += spec.procs as i64;
        *deltas.entry(c.finish).or_insert(0) -= spec.procs as i64;
    }
    let mut out = Vec::with_capacity(deltas.len());
    let mut cur = 0i64;
    for (t, d) in deltas {
        cur += d;
        debug_assert!(cur >= 0);
        out.push((t, cur as u64));
    }
    out
}

/// The peak of the [`width_profile`] — the maximum ideal parallelism.
pub fn peak_width(graph: &TaskGraph) -> u64 {
    width_profile(graph)
        .into_iter()
        .map(|(_, w)| w)
        .max()
        .unwrap_or(0)
}

/// The number of tasks on the longest (hop-count) path — the DAG depth.
pub fn depth(graph: &TaskGraph) -> usize {
    let order = match graph.topological_order() {
        Some(o) => o,
        None => return 0,
    };
    let mut d = vec![0usize; graph.len()];
    let mut best = 0;
    for id in order {
        let dd = graph
            .preds(id)
            .iter()
            .map(|&p| d[p.index()])
            .max()
            .unwrap_or(0)
            + 1;
        d[id.index()] = dd;
        best = best.max(dd);
    }
    best
}

/// One explicit longest path (by `f∞`) through the DAG, root to sink.
/// Useful for reports and debugging.
pub fn critical_path_tasks(graph: &TaskGraph) -> Vec<TaskId> {
    if graph.is_empty() {
        return Vec::new();
    }
    let crit = criticalities(graph);
    // Start from the task with the maximum f∞ and walk back through
    // predecessors that realize s∞.
    let mut cur = graph
        .task_ids()
        .max_by_key(|id| crit[id.index()].finish)
        .expect("non-empty graph");
    let mut path = vec![cur];
    loop {
        let s = crit[cur.index()].start;
        match graph
            .preds(cur)
            .iter()
            .find(|&&p| crit[p.index()].finish == s)
        {
            Some(&p) => {
                path.push(p);
                cur = p;
            }
            None => break,
        }
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;

    fn t(ms: (i64, i64)) -> Time {
        Time::from_millis(ms.0, ms.1)
    }

    /// A small chain a(1) -> b(2) -> c(0.5) plus an independent d(3).
    fn sample() -> Instance {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskSpec::new(t((1, 0)), 1).with_label("a"));
        let b = g.add_task(TaskSpec::new(t((2, 0)), 2).with_label("b"));
        let c = g.add_task(TaskSpec::new(t((0, 500)), 1).with_label("c"));
        let d = g.add_task(TaskSpec::new(t((3, 0)), 4).with_label("d"));
        let _ = d;
        g.add_edge(a, b);
        g.add_edge(b, c);
        Instance::new(g, 4)
    }

    #[test]
    fn criticalities_chain() {
        let inst = sample();
        let crit = criticalities(inst.graph());
        let g = inst.graph();
        let get = |l: &str| crit[g.find_by_label(l).unwrap().index()];
        assert_eq!(get("a").start, Time::ZERO);
        assert_eq!(get("a").finish, t((1, 0)));
        assert_eq!(get("b").start, t((1, 0)));
        assert_eq!(get("b").finish, t((3, 0)));
        assert_eq!(get("c").start, t((3, 0)));
        assert_eq!(get("c").finish, t((3, 500)));
        assert_eq!(get("d").start, Time::ZERO);
    }

    #[test]
    fn stats_values() {
        let inst = sample();
        let s = stats(&inst);
        assert_eq!(s.n, 4);
        // Area = 1*1 + 2*2 + 0.5*1 + 3*4 = 17.5
        assert_eq!(s.area, t((17, 500)));
        assert_eq!(s.critical_path, t((3, 500)));
        // A/P = 17.5/4 = 4.375 > C = 3.5.
        assert_eq!(s.lower_bound, Time::from_ratio(35, 8));
        assert_eq!(s.min_len, t((0, 500)));
        assert_eq!(s.max_len, t((3, 0)));
        assert!((s.length_ratio().unwrap() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn length_ratio_undefined_cases() {
        // Degenerate stats (empty instance or zero-length shortest task)
        // must yield None, never inf/NaN.
        let empty = InstanceStats {
            n: 0,
            procs: 4,
            area: Time::ZERO,
            critical_path: Time::ZERO,
            lower_bound: Time::ZERO,
            min_len: Time::ZERO,
            max_len: Time::ZERO,
        };
        assert_eq!(empty.length_ratio(), None);
        let zero_m = InstanceStats {
            n: 3,
            min_len: Time::ZERO,
            max_len: Time::from_int(2),
            ..empty.clone()
        };
        assert_eq!(zero_m.length_ratio(), None);
        let fine = InstanceStats {
            n: 3,
            min_len: Time::ONE,
            max_len: Time::from_int(2),
            ..empty
        };
        assert_eq!(fine.length_ratio(), Some(2.0));
    }

    #[test]
    fn overlap_implies_independence() {
        let inst = sample();
        let g = inst.graph();
        let crit = criticalities(g);
        for i in g.task_ids() {
            for j in g.task_ids() {
                if i != j && crit[i.index()].overlaps(&crit[j.index()]) {
                    assert!(!g.has_path(i, j) && !g.has_path(j, i));
                }
            }
        }
    }

    #[test]
    fn depth_and_path() {
        let inst = sample();
        assert_eq!(depth(inst.graph()), 3);
        let path = critical_path_tasks(inst.graph());
        let labels: Vec<&str> = path
            .iter()
            .map(|&id| inst.graph().spec(id).label_str())
            .collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
    }

    #[test]
    fn width_profile_of_sample() {
        let inst = sample();
        // ASAP unbounded: a(1p)+d(4p) at t=0..1; b(2p) 1..3 with d 0..3;
        // c 3..3.5.
        let profile = width_profile(inst.graph());
        assert_eq!(
            profile,
            vec![
                (Time::ZERO, 5),
                (t((1, 0)), 6),
                (t((3, 0)), 1),
                (t((3, 500)), 0),
            ]
        );
        assert_eq!(peak_width(inst.graph()), 6);
    }

    #[test]
    fn width_profile_halfopen_at_shared_instant() {
        // Back-to-back tasks sharing an instant: a(2p) on [0,1), b(3p) on
        // [1,2). With the half-open convention the boundary instant t=1
        // carries only b's width (3), never a+b (5). A third independent
        // task e(1p) on [0,2) keeps the profile non-trivial.
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskSpec::new(Time::from_int(1), 2).with_label("a"));
        let b = g.add_task(TaskSpec::new(Time::from_int(1), 3).with_label("b"));
        let _e = g.add_task(TaskSpec::new(Time::from_int(2), 1).with_label("e"));
        g.add_edge(a, b);
        let profile = width_profile(&g);
        assert_eq!(
            profile,
            vec![
                (Time::ZERO, 3),        // a(2) + e(1)
                (Time::from_int(1), 4), // a ends, b(3) starts: 3 + 1, not 6
                (Time::from_int(2), 0),
            ]
        );
        assert_eq!(peak_width(&g), 4);

        // A pure chain of equal-width tasks must have a flat profile: the
        // shared instants between consecutive tasks never spike.
        let mut chain = TaskGraph::new();
        let mut prev = None;
        for _ in 0..5 {
            let id = chain.add_task(TaskSpec::new(Time::from_int(1), 2));
            if let Some(p) = prev {
                chain.add_edge(p, id);
            }
            prev = Some(id);
        }
        let flat = width_profile(&chain);
        assert!(flat[..flat.len() - 1].iter().all(|&(_, w)| w == 2));
        assert_eq!(peak_width(&chain), 2);
    }

    #[test]
    fn width_profile_empty_graph() {
        let g = TaskGraph::new();
        assert_eq!(width_profile(&g), Vec::new());
        assert_eq!(peak_width(&g), 0);
    }

    #[test]
    fn width_profile_area_consistency() {
        // Integrating the width profile gives the instance area.
        let inst = sample();
        let profile = width_profile(inst.graph());
        let mut area = Time::ZERO;
        for w in profile.windows(2) {
            area += (w[1].0 - w[0].0).mul_int(w[0].1 as i64);
        }
        assert_eq!(area, stats(&inst).area);
    }

    #[test]
    fn lower_bound_critical_path_dominates() {
        // One long sequential task on a big machine: C dominates A/P.
        let mut g = TaskGraph::new();
        g.add_task(TaskSpec::new(Time::from_int(10), 1));
        let inst = Instance::new(g, 16);
        assert_eq!(lower_bound(&inst), Time::from_int(10));
    }
}
