//! Concrete processor assignment for rigid schedules.
//!
//! The rigid scheduling model only constrains processor *counts*; real
//! deployments (and Gantt rendering) need each task mapped to a concrete
//! set of processor indices. For any capacity-feasible schedule such an
//! assignment exists (Hall-type argument: at every instant at most `P`
//! processors are demanded), and a greedy earliest-start first-fit
//! produces one — though the set of one task may be non-contiguous
//! (contiguity is the strip-packing problem, solved by `rigid-strip`).

use crate::schedule::Schedule;
use rigid_dag::TaskId;
use rigid_time::Time;
use std::collections::HashMap;

/// A concrete assignment: each task's processor indices.
#[derive(Clone, Debug, Default)]
pub struct Assignment {
    map: HashMap<TaskId, Vec<u32>>,
}

impl Assignment {
    /// The processors of a task (sorted ascending).
    pub fn processors(&self, task: TaskId) -> Option<&[u32]> {
        self.map.get(&task).map(|v| v.as_slice())
    }

    /// Number of assigned tasks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if no tasks are assigned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Verifies that no processor runs two tasks at once and every task
    /// got exactly its demanded count.
    pub fn validate(&self, schedule: &Schedule) -> bool {
        for p in schedule.placements() {
            match self.map.get(&p.task) {
                None => return false,
                Some(procs) => {
                    if procs.len() != p.procs as usize {
                        return false;
                    }
                }
            }
        }
        // Pairwise: overlapping tasks must not share a processor.
        let placements: Vec<_> = schedule.placements().collect();
        for (i, a) in placements.iter().enumerate() {
            for b in &placements[i + 1..] {
                let overlap = a.start < b.finish && b.start < a.finish;
                if overlap {
                    let pa = &self.map[&a.task];
                    let pb = &self.map[&b.task];
                    if pa.iter().any(|x| pb.contains(x)) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Greedily assigns concrete processors to a capacity-feasible schedule.
///
/// # Panics
/// Panics if the schedule exceeds capacity (assignment would be
/// impossible) — validate the schedule first.
pub fn assign(schedule: &Schedule) -> Assignment {
    let procs = schedule.procs() as usize;
    let mut free_at: Vec<Time> = vec![Time::ZERO; procs];
    let mut placements: Vec<_> = schedule.placements().collect();
    placements.sort_by_key(|p| (p.start, p.task));
    let mut map = HashMap::new();
    for p in placements {
        let mut chosen = Vec::with_capacity(p.procs as usize);
        for (idx, free) in free_at.iter_mut().enumerate() {
            if *free <= p.start {
                chosen.push(idx as u32);
                if chosen.len() == p.procs as usize {
                    break;
                }
            }
        }
        assert_eq!(
            chosen.len(),
            p.procs as usize,
            "schedule exceeds capacity at {}",
            p.start
        );
        for &c in &chosen {
            free_at[c as usize] = p.finish;
        }
        map.insert(p.task, chosen);
    }
    Assignment { map }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::gen::{erdos_dag, TaskSampler};
    use rigid_dag::StaticSource;

    #[test]
    fn assignment_of_simple_schedule() {
        let mut s = Schedule::new(4);
        s.place(TaskId(0), Time::ZERO, Time::from_int(2), 2);
        s.place(TaskId(1), Time::ZERO, Time::from_int(1), 2);
        s.place(TaskId(2), Time::from_int(1), Time::from_int(2), 2);
        let a = assign(&s);
        assert!(a.validate(&s));
        assert_eq!(a.processors(TaskId(0)).unwrap().len(), 2);
        // Task 2 reuses task 1's freed processors.
        assert_eq!(a.processors(TaskId(2)), a.processors(TaskId(1)));
    }

    #[test]
    fn assignment_on_real_runs() {
        for seed in 0..6u64 {
            let inst = erdos_dag(seed, 30, 0.2, &TaskSampler::default_mix(), 8);
            let mut src = StaticSource::new(inst.clone());
            let r = crate::engine::EngineConfig::new().run(&mut src, &mut test_greedy());
            let a = assign(&r.schedule);
            assert!(a.validate(&r.schedule), "seed {seed}");
            assert_eq!(a.len(), inst.len());
        }
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn over_capacity_panics() {
        let mut s = Schedule::new(2);
        s.place(TaskId(0), Time::ZERO, Time::ONE, 2);
        s.place(TaskId(1), Time::ZERO, Time::ONE, 2);
        let _ = assign(&s);
    }

    /// Minimal greedy scheduler for the integration check.
    fn test_greedy() -> impl crate::OnlineScheduler {
        struct G(Vec<(TaskId, u32)>);
        impl crate::OnlineScheduler for G {
            fn name(&self) -> &'static str {
                "g"
            }
            fn on_release(&mut self, t: &rigid_dag::ReleasedTask, _: Time) {
                self.0.push((t.id, t.spec.procs));
            }
            fn on_complete(&mut self, _: TaskId, _: Time) {}
            fn decide_into(&mut self, _: Time, mut free: u32, out: &mut Vec<TaskId>) {
                self.0.retain(|&(id, p)| {
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
        G(Vec::new())
    }
}
