//! # rigid-dag — rigid task graphs, analysis and workload generators
//!
//! The instance model of *“A New Algorithm for Online Scheduling of Rigid
//! Task Graphs with Near-Optimal Competitive Ratio”* (SPAA 2025), built
//! from scratch:
//!
//! * [`TaskSpec`]/[`TaskGraph`]/[`Instance`] — rigid tasks `(t, p)` under
//!   precedence constraints on `P` identical processors (paper Section 3.1);
//! * [`analysis`] — criticalities `(s∞, f∞)`, critical path `C`, area `A`,
//!   and the Graham lower bound `Lb = max(A/P, C)` (Section 3.2);
//! * [`source`] — the online revelation interface: tasks become visible
//!   only when all predecessors complete;
//! * [`gen`] — seeded random DAG ensembles (layered, Erdős–Rényi,
//!   fork–join, series–parallel, trees, chains, independent);
//! * [`paper`] — the paper's worked examples (Figure 1, Figure 3);
//! * [`builder`]/[`io`]/[`format`](mod@format) — ergonomic construction, DOT/JSON
//!   export, and the plain-text `.rigid` instance format.
//!
//! ## Example
//!
//! ```
//! use rigid_dag::{DagBuilder, analysis};
//! use rigid_time::Time;
//!
//! let inst = DagBuilder::new()
//!     .task("prep", Time::from_int(1), 2)
//!     .task("solve", Time::from_int(4), 8)
//!     .task("post", Time::from_millis(0, 500), 1)
//!     .edge("prep", "solve")
//!     .edge("solve", "post")
//!     .build(8);
//!
//! let stats = analysis::stats(&inst);
//! assert_eq!(stats.critical_path, Time::from_millis(5, 500));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod fingerprint;
pub mod format;
pub mod gen;
pub mod graph;
pub mod io;
pub mod paper;
pub mod source;
pub mod task;

pub use builder::DagBuilder;
pub use fingerprint::{instance_fingerprint, StableHasher};
pub use graph::{Instance, InstanceError, TaskGraph};
pub use source::{InstanceSource, ReleasedTask, StaticSource};
pub use task::{TaskId, TaskSpec};

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::analysis::criticalities;
    use crate::gen::{erdos_dag, TaskSampler};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Criticality intervals that overlap belong to independent tasks
        /// (the key structural observation of the paper's Section 4.1).
        #[test]
        fn overlap_implies_no_path(seed in 0u64..5_000, n in 2usize..25, p in 1u32..9) {
            let inst = erdos_dag(seed, n, 0.2, &TaskSampler::default_mix(), p);
            let g = inst.graph();
            let crit = criticalities(g);
            for i in g.task_ids() {
                for j in g.task_ids() {
                    if i != j && crit[i.index()].overlaps(&crit[j.index()]) {
                        prop_assert!(!g.has_path(i, j));
                    }
                }
            }
        }

        /// s∞ equals the max predecessor f∞ (Lemma 1) for every task.
        #[test]
        fn criticality_recursion(seed in 0u64..5_000, n in 1usize..30) {
            let inst = erdos_dag(seed, n, 0.15, &TaskSampler::default_mix(), 8);
            let g = inst.graph();
            let crit = criticalities(g);
            for id in g.task_ids() {
                let expect = g.preds(id).iter()
                    .map(|&p| crit[p.index()].finish)
                    .max()
                    .unwrap_or(rigid_time::Time::ZERO);
                prop_assert_eq!(crit[id.index()].start, expect);
                prop_assert_eq!(
                    crit[id.index()].finish,
                    crit[id.index()].start + g.spec(id).time
                );
            }
        }

        /// The online replay of a static instance releases every task
        /// exactly once, in an order consistent with the DAG.
        #[test]
        fn static_source_releases_everything(seed in 0u64..5_000, n in 1usize..25) {
            let inst = erdos_dag(seed, n, 0.2, &TaskSampler::default_mix(), 8);
            let order = inst.graph().topological_order().unwrap();
            let mut src = StaticSource::new(inst.clone());
            let mut released: Vec<TaskId> = src.initial().iter().map(|r| r.id).collect();
            // Complete tasks in topological order; collect releases.
            for (i, &id) in order.iter().enumerate() {
                let newly = src.on_complete(id, i as u64);
                released.extend(newly.iter().map(|r| r.id));
            }
            released.sort();
            let all: Vec<TaskId> = inst.graph().task_ids().collect();
            prop_assert_eq!(released, all);
            prop_assert!(!src.expects_more());
        }
    }
}
