//! Moldable instances: a DAG whose tasks carry speedup models instead of
//! fixed `(t, p)` pairs, plus the conversion to a rigid instance once an
//! allocation is chosen.

use crate::model::SpeedupModel;
use rigid_dag::{Instance, TaskGraph, TaskId, TaskSpec};
use rigid_time::Time;

/// A moldable task graph on `P` processors.
#[derive(Clone, Debug)]
pub struct MoldableInstance {
    models: Vec<SpeedupModel>,
    edges: Vec<(u32, u32)>,
    procs: u32,
}

/// Builder for moldable instances.
#[derive(Default)]
pub struct MoldableBuilder {
    models: Vec<SpeedupModel>,
    edges: Vec<(u32, u32)>,
}

impl MoldableBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        MoldableBuilder::default()
    }

    /// Adds a task with the given speedup model; returns its index.
    pub fn task(&mut self, model: SpeedupModel) -> u32 {
        self.models.push(model);
        (self.models.len() - 1) as u32
    }

    /// Adds a precedence edge `from → to`.
    pub fn edge(&mut self, from: u32, to: u32) -> &mut Self {
        self.edges.push((from, to));
        self
    }

    /// Finishes the instance on `procs` processors.
    ///
    /// # Panics
    /// Panics if the graph would be cyclic or an edge is out of range
    /// (validated through the rigid conversion below).
    pub fn build(self, procs: u32) -> MoldableInstance {
        let inst = MoldableInstance {
            models: self.models,
            edges: self.edges,
            procs,
        };
        // Validate eagerly by materializing with the all-ones allocation.
        let _ = inst.to_rigid(&vec![1; inst.len()]);
        inst
    }
}

impl MoldableInstance {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Returns `true` if there are no tasks.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Platform size `P`.
    pub fn procs(&self) -> u32 {
        self.procs
    }

    /// The speedup model of task `i`.
    pub fn model(&self, i: usize) -> &SpeedupModel {
        &self.models[i]
    }

    /// The edges.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Materializes a rigid instance under the given per-task allocation.
    ///
    /// # Panics
    /// Panics if the allocation length mismatches, any entry is outside
    /// `[1, P]`, or the graph is cyclic.
    pub fn to_rigid(&self, alloc: &[u32]) -> Instance {
        assert_eq!(alloc.len(), self.len(), "allocation arity mismatch");
        let mut g = TaskGraph::new();
        for (i, model) in self.models.iter().enumerate() {
            let p = alloc[i];
            assert!(p >= 1 && p <= self.procs, "allocation {p} out of range");
            g.add_task(TaskSpec::new(model.time(p), p).with_label(format!("m{i}")));
        }
        for &(a, b) in &self.edges {
            g.add_edge(TaskId(a), TaskId(b));
        }
        Instance::new(g, self.procs)
    }

    /// The moldable makespan lower bound: every schedule, regardless of
    /// allocation, needs at least
    /// `max( Σ_i min_p area_i(p) / P , critical path with min_p t_i(p) )`.
    pub fn lower_bound(&self) -> Time {
        let min_area: Time = self
            .models
            .iter()
            .map(|m| (1..=self.procs).map(|p| m.area(p)).min().expect("P >= 1"))
            .sum();
        // Critical path with the per-task minimum time.
        let min_time_alloc: Vec<u32> = self
            .models
            .iter()
            .map(|m| m.min_time_alloc(self.procs))
            .collect();
        let fastest = self.to_rigid(&min_time_alloc);
        let cpath = rigid_dag::analysis::critical_path(fastest.graph());
        min_area.div_int(self.procs as i64).max(cpath)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_time::Rational;

    fn sample() -> MoldableInstance {
        let mut b = MoldableBuilder::new();
        let a = b.task(SpeedupModel::Roofline {
            work: Time::from_int(8),
            max_par: 4,
        });
        let c = b.task(SpeedupModel::Amdahl {
            work: Time::from_int(6),
            seq_fraction: Rational::new(1, 3),
        });
        b.edge(a, c);
        b.build(4)
    }

    #[test]
    fn rigid_conversion() {
        let m = sample();
        let rigid = m.to_rigid(&[4, 2]);
        assert_eq!(rigid.len(), 2);
        let g = rigid.graph();
        assert_eq!(g.spec(TaskId(0)).time, Time::from_int(2)); // 8/4
        assert_eq!(g.spec(TaskId(0)).procs, 4);
        // Amdahl at p=2: 6·(1/3 + 2/3 / 2) = 6·(2/3) = 4.
        assert_eq!(g.spec(TaskId(1)).time, Time::from_int(4));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn lower_bound_components() {
        let m = sample();
        // Min areas: roofline area constant 8 (perfect speedup in cap);
        // amdahl min area at p=1: 6. Area bound: 14/4 = 3.5.
        // Min times: roofline 2 (p=4); amdahl at p=4: 6·(1/3+1/6)=3.
        // Chain: 2 + 3 = 5 > 3.5.
        assert_eq!(m.lower_bound(), Time::from_int(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_allocation_rejected() {
        let m = sample();
        let _ = m.to_rigid(&[5, 1]);
    }
}
