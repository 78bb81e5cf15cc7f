//! Offline list scheduling with global priorities.
//!
//! The classic offline comparator: priorities are computed from the
//! *whole* DAG before execution — here the **bottom level** (critical
//! tail) `bl(T) = t + max bl over successors`, giving Highest-Level-First
//! (HLF) scheduling — and the schedule is then built greedily. The
//! mechanics are those of online list scheduling, run on the same
//! simulation engine; only the information model differs, which is
//! exactly the comparison the competitive analysis is about.

use rigid_dag::{analysis, Instance, ReleasedTask, StaticSource, TaskId};
use rigid_sim::{EngineConfig, OfflineScheduler, OnlineScheduler, Schedule};
use rigid_time::Time;
use std::collections::BTreeMap;

/// Which global priority to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OfflinePriority {
    /// Bottom level (critical tail) — Highest Level First.
    BottomLevel,
    /// Earliest criticality start `s∞` first (topological freshness).
    CriticalityStart,
    /// Largest remaining-successor area first.
    DescendantArea,
}

/// Offline list scheduler with a global priority.
pub struct OfflineList {
    priority: OfflinePriority,
}

impl OfflineList {
    /// Highest-Level-First (bottom-level priority).
    pub fn hlf() -> Self {
        OfflineList {
            priority: OfflinePriority::BottomLevel,
        }
    }

    /// Criticality-start priority.
    pub fn by_criticality() -> Self {
        OfflineList {
            priority: OfflinePriority::CriticalityStart,
        }
    }

    /// Descendant-area priority.
    pub fn by_descendant_area() -> Self {
        OfflineList {
            priority: OfflinePriority::DescendantArea,
        }
    }

    /// Computes the priority key of every task (smaller sorts first).
    fn keys(&self, instance: &Instance) -> Vec<Time> {
        let g = instance.graph();
        let order = g.topological_order().expect("acyclic");
        match self.priority {
            OfflinePriority::BottomLevel => {
                let mut bl = vec![Time::ZERO; g.len()];
                for &id in order.iter().rev() {
                    let succ_max = g
                        .succs(id)
                        .iter()
                        .map(|&s| bl[s.index()])
                        .max()
                        .unwrap_or(Time::ZERO);
                    bl[id.index()] = g.spec(id).time + succ_max;
                }
                // Larger bottom level = higher priority = smaller key.
                bl.into_iter().map(|t| -t).collect()
            }
            OfflinePriority::CriticalityStart => analysis::criticalities(g)
                .into_iter()
                .map(|c| c.start)
                .collect(),
            OfflinePriority::DescendantArea => {
                // Area of the task plus everything reachable from it.
                // (Shared descendants are counted once per path start —
                // a heuristic weight, not an exact sum.)
                let mut w = vec![Time::ZERO; g.len()];
                for &id in order.iter().rev() {
                    let succ: Time = g.succs(id).iter().map(|&s| w[s.index()]).sum();
                    w[id.index()] = g.spec(id).area() + succ;
                }
                w.into_iter().map(|t| -t).collect()
            }
        }
    }
}

impl OfflineScheduler for OfflineList {
    fn name(&self) -> &'static str {
        match self.priority {
            OfflinePriority::BottomLevel => "offline-list-hlf",
            OfflinePriority::CriticalityStart => "offline-list-crit",
            OfflinePriority::DescendantArea => "offline-list-area",
        }
    }

    fn schedule(&mut self, instance: &Instance) -> Schedule {
        let mut greedy = ByKey {
            keys: self.keys(instance),
            ready: BTreeMap::new(),
        };
        let mut source = StaticSource::new(instance.clone());
        EngineConfig::new().run(&mut source, &mut greedy).schedule
    }
}

/// Greedy list scheduling by precomputed keys, driven by the engine: at
/// each decision, start every ready task that fits, in (key, id) order.
struct ByKey {
    keys: Vec<Time>,
    /// Ready tasks and their widths.
    ready: BTreeMap<(Time, TaskId), u32>,
}

impl OnlineScheduler for ByKey {
    fn name(&self) -> &'static str {
        "offline-list"
    }

    fn on_release(&mut self, task: &ReleasedTask, _now: Time) {
        let key = (self.keys[task.id.index()], task.id);
        self.ready.insert(key, task.spec.procs);
    }

    fn on_complete(&mut self, _task: TaskId, _now: Time) {}

    fn decide_into(&mut self, _now: Time, mut free: u32, out: &mut Vec<TaskId>) {
        self.ready.retain(|&(_, id), &mut p| {
            if p <= free {
                free -= p;
                out.push(id);
                false
            } else {
                true
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::gen::{erdos_dag, TaskSampler};
    use rigid_dag::DagBuilder;
    use rigid_sim::offline::run_offline;

    #[test]
    fn hlf_prefers_critical_chain() {
        // Chain a→b (bottom levels 5, 3) vs independent c (bottom level
        // 2): with one free slot at a time, HLF runs a before c.
        let inst = DagBuilder::new()
            .task("a", Time::from_int(2), 1)
            .task("b", Time::from_int(3), 1)
            .task("c", Time::from_int(2), 1)
            .edge("a", "b")
            .build(1);
        let s = run_offline(&mut OfflineList::hlf(), &inst);
        let g = inst.graph();
        assert_eq!(
            s.placement(g.find_by_label("a").unwrap()).unwrap().start,
            Time::ZERO
        );
        // b immediately after a (priority over c).
        assert_eq!(
            s.placement(g.find_by_label("b").unwrap()).unwrap().start,
            Time::from_int(2)
        );
        assert_eq!(s.makespan(), Time::from_int(7));
    }

    #[test]
    fn all_offline_priorities_feasible() {
        for seed in 0..8u64 {
            let inst = erdos_dag(seed, 30, 0.2, &TaskSampler::default_mix(), 8);
            for mut alg in [
                OfflineList::hlf(),
                OfflineList::by_criticality(),
                OfflineList::by_descendant_area(),
            ] {
                let s = run_offline(&mut alg, &inst);
                assert_eq!(s.len(), inst.len());
            }
        }
    }

    #[test]
    fn offline_list_never_below_lb() {
        for seed in 0..6u64 {
            let inst = erdos_dag(seed, 20, 0.25, &TaskSampler::default_mix(), 4);
            let s = run_offline(&mut OfflineList::hlf(), &inst);
            assert!(s.makespan() >= rigid_dag::analysis::lower_bound(&inst));
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(rigid_dag::TaskGraph::new(), 4);
        let s = OfflineList::hlf().schedule(&inst);
        assert!(s.is_empty());
    }
}
